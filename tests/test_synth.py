"""Synthetic-generator tests: determinism, marginal laws, and spatial structure."""

import json

import numpy as np
import pytest
from scipy import stats

from raincop.marginals import JglmCoefficients
from raincop.spatial import MaternParams, matern_kernel
from raincop.synth import SynthSpec, generate_locations, simulate_dataset, write_truth


class TestGenerateLocations:
    def test_deterministic(self):
        spec = SynthSpec(n_locations=20, seed=3)
        a, b = generate_locations(spec), generate_locations(spec)
        assert a.ids == b.ids
        assert np.array_equal(a.lat, b.lat)
        assert np.array_equal(a.elev, b.elev)

    def test_inside_box(self):
        spec = SynthSpec(n_locations=400, seed=1)
        locs = generate_locations(spec)
        assert np.all((locs.lat >= 49.9) & (locs.lat <= 58.7))
        assert np.all((locs.lon >= -8.2) & (locs.lon <= 1.8))
        assert np.all((locs.elev >= spec.elev_range[0])
                      & (locs.elev <= spec.elev_range[1]))

    def test_distinct_points(self):
        locs = generate_locations(SynthSpec(n_locations=100, seed=2))
        pts = np.column_stack([locs.lat, locs.lon])
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        assert d[~np.eye(100, dtype=bool)].min() > 0.0


class TestSimulateDataset:
    def test_no_zeros_when_p_one(self):
        res = simulate_dataset(SynthSpec(n_locations=5, n_days=200, p=1.0, seed=4))
        assert np.all(res.panel.values > 0.0)

    def test_wet_fraction_binomial(self):
        spec = SynthSpec(n_locations=4, n_days=5000, p=0.6, seed=5)
        res = simulate_dataset(spec)
        sigma = np.sqrt(0.6 * 0.4 / 5000)
        for i in range(4):
            wet = np.mean(res.panel.values[:, i] > 0.0)
            assert wet == pytest.approx(0.6, abs=3 * sigma)

    def test_wet_marginal_ks(self):
        spec = SynthSpec(n_locations=3, n_days=4000, seed=6)
        res = simulate_dataset(spec)
        shape, scale = 1.0 / spec.phi, spec.phi * spec.mu
        for i in range(3):
            wet_vals = res.panel.values[:, i][res.panel.values[:, i] > 0.0]
            ks = stats.kstest(wet_vals, "gamma", args=(shape, 0.0, scale))
            assert ks.pvalue > 0.01

    def test_latent_correlation_tracks_kernel(self):
        spec = SynthSpec(n_locations=12, n_days=3000, p=1.0, seed=7)
        res = simulate_dataset(spec)
        # p = 1: rainfall is a monotone transform of the latent field, so
        # Spearman correlation ranks with the kernel values
        kern = matern_kernel(res.distance.values.ravel(),
                             MaternParams(theta=spec.theta_true)).reshape(12, 12)
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        emp = [stats.spearmanr(res.panel.values[:, i], res.panel.values[:, j]).statistic
               for i, j in pairs]
        k_vals = [kern[i, j] for i, j in pairs]
        rho = stats.spearmanr(emp, k_vals).statistic
        assert rho > 0.9

    def test_jglm_generator_mode(self):
        coeffs = JglmCoefficients(alpha0=0.4, alpha=[0.5], beta0=1.0, beta=[0.2],
                                  gamma0=0.0, gamma=[0.1])
        spec = SynthSpec(n_locations=6, n_days=40, coeffs=coeffs, seed=8)
        res = simulate_dataset(spec)
        assert res.features is not None
        assert res.features.shape == (6 * 40, 1)
        assert res.field.p.std() > 0.0  # heterogeneous marginals

    def test_day_labels_iso(self):
        res = simulate_dataset(SynthSpec(n_locations=2, n_days=3, seed=9,
                                         start_date="1999-12-31"))
        assert res.panel.day_labels == ("1999-12-31", "2000-01-01", "2000-01-02")

    def test_determinism(self):
        spec = SynthSpec(n_locations=4, n_days=10, seed=10)
        a, b = simulate_dataset(spec), simulate_dataset(spec)
        assert np.array_equal(a.panel.values, b.panel.values)

    @pytest.mark.parametrize("days_per_chunk", [1, 7], ids=["one-day", "ragged"])
    def test_day_chunking_changes_no_value(self, monkeypatch, days_per_chunk):
        from raincop import numerics

        spec = SynthSpec(n_locations=6, n_days=60, seed=14)
        whole = simulate_dataset(spec).panel.values  # one chunk under the default budget
        monkeypatch.setattr(numerics, "_ELEMENT_BUDGET", days_per_chunk * spec.n_locations)
        assert len(numerics.day_chunks(spec.n_days, spec.n_locations)) > 1
        assert np.array_equal(simulate_dataset(spec).panel.values, whole)


class TestTruth:
    def test_truth_json(self, tmp_path):
        spec = SynthSpec(n_locations=7, n_days=11, theta_true=375.0, seed=12)
        path = tmp_path / "truth.json"
        write_truth(path, spec)
        payload = json.loads(path.read_text())
        assert payload["theta_true"] == 375.0
        assert payload["n_locations"] == 7
        assert payload["marginals"]["mode"] == "homogeneous"
        assert payload["marginals"]["p"] == spec.p
