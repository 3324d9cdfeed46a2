"""Latent sampling, censoring, Gaussian-scale transforms, and joint forecasts."""

import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from raincop import numerics
from raincop.copula import (censor, censor_thresholds, day_normals, joint_forecast,
                            obs_to_gaussian, read_ensemble, substream, write_ensemble)
from raincop.marginals import GammaMixture, MarginalField, mixture_cdf, mixture_quantile
from raincop.numerics import spd_factorize
from raincop.panel import IngestError, RainPanel
from raincop.spatial import CovarianceMatrix, MaternParams


def cov_from_sigma(sigma):
    sigma = np.asarray(sigma, dtype=float)
    return CovarianceMatrix(sigma=sigma, params=MaternParams(theta=1.0),
                            factor=spd_factorize(sigma))


class TestThresholds:
    def test_interior_and_sentinels(self):
        field = MarginalField(
            p=np.array([[0.5, 0.0, 1.0]]),
            mu=np.ones((1, 3)), phi=np.ones((1, 3)))
        d = censor_thresholds(field)
        assert d[0, 0] == 0.0
        assert d[0, 1] == np.inf
        assert d[0, 2] == -np.inf

    def test_matches_quantile_of_dry_mass(self):
        field = MarginalField.homogeneous(GammaMixture(p=0.6, mu=3.0, phi=1.2), 2, 2)
        d = censor_thresholds(field)
        assert np.allclose(d, stats.norm.ppf(0.4), atol=1e-12)


def latent_draws(cov, m, seed, *path):
    """Day 0's latent draws of joint_forecast, read back through the mixture CDF.

    With p = 1 no cell is censored and u = Phi(x*) is recovered to ~1e-12.
    """
    law = GammaMixture(p=1.0, mu=2.0, phi=1.0)
    field = MarginalField.homogeneous(law, cov.n, 1)
    rain = joint_forecast(cov, field, [0], m, seed, *path)[0]
    return special.ndtri(mixture_cdf(law.p, law.mu, law.phi, rain))


class TestSampleLatent:
    """The latent sample x* = L z that joint_forecast draws for each day."""

    def test_identity_covariance_moments(self):
        cov = cov_from_sigma(np.eye(3))
        draws = latent_draws(cov, 100_000, 0, 1)
        sd_var = np.sqrt(2.0 / 100_000)  # var of sample variance of N(0,1)
        assert np.allclose(draws.var(axis=0), 1.0, atol=3 * sd_var)
        corr = np.corrcoef(draws.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 3.0 / np.sqrt(100_000))

    def test_correlated_pair(self):
        sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
        draws = latent_draws(cov_from_sigma(sigma), 100_000, 0, 2)
        r = np.corrcoef(draws.T)[0, 1]
        se = (1.0 - 0.8 ** 2) / np.sqrt(100_000)
        assert r == pytest.approx(0.8, abs=3 * se)

    def test_determinism(self):
        cov = cov_from_sigma(np.eye(4))
        field = MarginalField.homogeneous(GammaMixture(p=0.6, mu=3.0, phi=1.2), 4, 3)
        a = joint_forecast(cov, field, range(3), 10, 42, 7)
        b = joint_forecast(cov, field, range(3), 10, 42, 7)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        cov = cov_from_sigma(np.eye(4))
        field = MarginalField.homogeneous(GammaMixture(p=1.0, mu=3.0, phi=1.2), 4, 2)
        a = joint_forecast(cov, field, range(2), 10, 42, 7)
        b = joint_forecast(cov, field, range(2), 10, 42, 8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a[0], a[1])  # each day its own substream


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 12), st.integers(1, 9), st.integers(0, 2**31),
       st.data())
def test_chunked_draws_equal_per_day_draws(k, m, n, seed, data):
    """One k-day call gives, bit for bit, each day's draw as one-day calls make it."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    sigma = a @ a.T + n * np.eye(n)
    sigma /= np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
    cov = cov_from_sigma(sigma)
    t = k + data.draw(st.integers(0, 3))
    field = MarginalField(p=rng.choice([0.0, 0.3, 0.7, 1.0], size=(n, t)).T,
                          mu=rng.uniform(0.5, 5.0, (n, t)).T, phi=rng.uniform(0.2, 2.0, (n, t)).T)
    first = data.draw(st.integers(0, t - k))
    days = range(first, first + k)
    chunk = joint_forecast(cov, field, days, m, seed, 21)
    assert chunk.shape == (k, m, n)
    for j, day in enumerate(days):
        assert np.array_equal(chunk[j], joint_forecast(cov, field, [day], m, seed, 21)[0])
        # the per-day formula: one day's normals, one matmul, Phi, the day's quantile
        z = substream(seed, 21, day).standard_normal((m, n))
        u = special.ndtr(z @ cov.factor.lower.T)
        ref = mixture_quantile(field.p[day], field.mu[day], field.phi[day], u)
        assert np.array_equal(chunk[j], ref)


class TestCensor:
    def test_no_thresholds_identity(self):
        x = np.array([-3.0, 0.2, 5.0])
        assert np.array_equal(censor(x, np.full(3, -np.inf)), x)

    def test_hand_case(self):
        out = censor(np.array([-2.0, 0.5]), np.array([0.0, 0.0]))
        assert np.array_equal(out, np.array([0.0, 0.5]))

    def test_always_dry_sentinel(self):
        out = censor(np.array([1.0, 2.0]), np.array([np.inf, 0.0]))
        assert out[0] == np.inf and out[1] == 2.0

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(20)
        d = rng.standard_normal(20)
        once = censor(x, d)
        assert np.array_equal(censor(once, d), once)

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(50)
        d1 = rng.standard_normal(50)
        d2 = d1 + rng.uniform(0.0, 1.0, 50)
        assert np.all(censor(x, d2) >= censor(x, d1))


class TestObsToGaussian:
    def test_dry_at_half(self):
        field = MarginalField.homogeneous(GammaMixture(p=0.5, mu=1.0, phi=1.0), 1, 1)
        x = obs_to_gaussian(np.zeros((1, 1)), field)
        assert x[0, 0] == 0.0

    def test_probability_integral_round_trip(self):
        law = GammaMixture(p=0.8, mu=3.0, phi=0.9)
        field = MarginalField.homogeneous(law, 1, 1)
        y = mixture_quantile(law.p, law.mu, law.phi, 0.975)
        x = obs_to_gaussian(np.array([[y]]), field)
        assert x[0, 0] == pytest.approx(1.9599639845, abs=1e-7)

    def test_zeros_land_exactly_on_thresholds(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(0.2, 0.9, size=(4, 6))
        field = MarginalField(p=p, mu=np.full((4, 6), 2.0), phi=np.full((4, 6), 1.1))
        values = np.where(rng.random((4, 6)) < 0.5, 0.0, rng.gamma(1.0, 2.0, (4, 6)))
        x = obs_to_gaussian(values, field)
        d = censor_thresholds(field)
        dry = values == 0.0
        assert np.array_equal(x[dry], d[dry])

    def test_cdf_clamp_warns(self):
        field = MarginalField.homogeneous(GammaMixture(p=0.5, mu=0.01, phi=1.0), 1, 1)
        with pytest.warns(UserWarning):
            x = obs_to_gaussian(np.array([[500.0]]), field)
        assert np.isfinite(x[0, 0])


class TestJointForecast:
    def test_independent_mean(self):
        field = MarginalField.homogeneous(GammaMixture(p=1.0, mu=2.0, phi=1.0), 3, 1)
        cov = cov_from_sigma(np.eye(3))
        draws = joint_forecast(cov, field, [0], 100_000, 0, 3)[0]
        se = 2.0 / np.sqrt(100_000)  # exponential sd = mu
        assert np.allclose(draws.mean(axis=0), 2.0, atol=3 * se)

    def test_near_comonotone_agreement(self):
        field = MarginalField.homogeneous(GammaMixture(p=0.5, mu=1.0, phi=1.0), 2, 1)
        strong = cov_from_sigma(np.array([[1.0, 0.999], [0.999, 1.0]]))
        indep = cov_from_sigma(np.eye(2))
        m = 40_000
        d_strong = joint_forecast(strong, field, [0], m, 1)[0]  # substream(1, 0)
        d_indep = joint_forecast(indep, field, [0], m, 1, 1)[0]
        dis_strong = np.mean((d_strong[:, 0] > 0) != (d_strong[:, 1] > 0))
        dis_indep = np.mean((d_indep[:, 0] > 0) != (d_indep[:, 1] > 0))
        assert dis_strong < 0.05
        assert dis_indep > 0.4  # ~0.5 under independence

    def test_always_dry_coordinate(self):
        field = MarginalField(
            p=np.array([[0.0, 0.7]]),
            mu=np.full((1, 2), 2.0), phi=np.full((1, 2), 1.0))
        cov = cov_from_sigma(np.eye(2))
        draws = joint_forecast(cov, field, [0], 5000, 2)[0]
        assert np.all(draws[:, 0] == 0.0)

    def test_dry_is_bit_exact_zero(self):
        field = MarginalField.homogeneous(GammaMixture(p=0.5, mu=3.0, phi=1.2), 3, 1)
        draws = joint_forecast(cov_from_sigma(np.eye(3)), field, [0], 2000, 3)[0]
        dry = draws[draws == 0.0]
        assert dry.size > 0
        assert np.all(np.signbit(dry) == np.signbit(0.0))

    def test_marginal_preservation_ks(self):
        law = GammaMixture(p=0.6, mu=3.0, phi=1.2)
        field = MarginalField.homogeneous(law, 2, 1)
        sigma = np.array([[1.0, 0.7], [0.7, 1.0]])
        joint = joint_forecast(cov_from_sigma(sigma), field, [0], 20_000, 4)[0]
        direct = mixture_quantile(law.p, law.mu, law.phi, substream(4, 1).random(20_000))
        for i in range(2):
            ks = stats.ks_2samp(joint[:, i], direct).statistic
            assert ks < 0.02

    def test_day_out_of_range(self):
        field = MarginalField.homogeneous(GammaMixture(p=0.5, mu=1.0, phi=1.0), 2, 3)
        with pytest.raises(ValueError):
            joint_forecast(cov_from_sigma(np.eye(2)), field, [2, 3], 10, 0)

    @pytest.mark.parametrize("days, m", [([0], 0), ([], 5)], ids=["no-draw", "no-day"])
    def test_empty_request_rejected(self, days, m):
        field = MarginalField.homogeneous(GammaMixture(p=0.5, mu=1.0, phi=1.0), 2, 3)
        with pytest.raises(ValueError, match="need at least one draw|non-empty run"):
            joint_forecast(cov_from_sigma(np.eye(2)), field, days, m, 0)


def panel_of(days, n):
    """A rainfall panel of days d0, d1, ... over sites s0, s1, ...: what an ensemble keys to."""
    return RainPanel(np.zeros((days, n)), [f"s{i}" for i in range(n)],
                     [f"d{s}" for s in range(days)])


class TestEnsembleCsv:
    def test_round_trip_and_zero_tokens(self, tmp_path, whole_ensemble):
        blocks = [np.array([[0.0, 1.5], [2.25, 0.0]]),
                  np.array([[0.5, 0.0], [0.0, 3.75]])]
        path = tmp_path / "ensemble.csv"
        write_ensemble(path, ["2001-01-01", "2001-01-02"], ["a", "b"], blocks)
        text = path.read_text()
        assert "loc_a,loc_b" in text.splitlines()[0]
        assert ",0," in text or text.count(",0\n") > 0  # exact zero tokens
        back = whole_ensemble(path, ["2001-01-01", "2001-01-02"], ["a", "b"])
        assert np.array_equal(back[0], blocks[0])
        assert np.array_equal(back[1], blocks[1])

    def test_interleaved_days_rejected(self, tmp_path, whole_ensemble):
        # the second and third days' rows taken in turn: the first row out of order is named
        path = tmp_path / "ensemble.csv"
        write_ensemble(path, ["d0", "d1", "d2"], ["a", "b"], np.zeros((3, 2, 2)))
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *rows[:3], rows[4], rows[3], rows[5]]) + "\n")
        with pytest.raises(IngestError, match="row 5: day 'd2' does not match panel order "
                                              "\\(expected 'd1'\\)"):
            whole_ensemble(path, ["d0", "d1", "d2"], ["a", "b"])

    def test_header_mismatch(self, tmp_path, whole_ensemble):
        path = tmp_path / "ensemble.csv"
        write_ensemble(path, ["d0"], ["a", "b"], [np.zeros((2, 2))])
        with pytest.raises(ValueError):
            whole_ensemble(path, ["d0"], ["a", "c"])


class TestEnsembleHandedOver:
    """read_ensemble(path, panel) yields the days a day chunk at a time."""

    @staticmethod
    def write(path, days, m, n, order=None):
        """An ensemble of distinct cells; order(rows) may reorder its data rows."""
        cells = np.arange(days * m * n, dtype=float).reshape(days, m, n)
        panel = panel_of(days, n)
        write_ensemble(path, panel.day_labels, panel.location_ids, cells)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *(order(rows) if order else rows)]) + "\n")
        return cells

    @staticmethod
    def collect(path, days, n, got=None):
        """The (days, samples) chunks yielded, into got as they come."""
        got = [] if got is None else got
        for sl, samples in read_ensemble(path, panel_of(days, n)):
            got.append((sl, samples.copy()))
        return got

    @pytest.mark.parametrize("blank_lines", [False, True], ids=["contiguous", "blank-lines"])
    def test_chunks_in_day_order_are_the_whole(self, tmp_path, monkeypatch, blank_lines):
        # blank lines hold no data row, so they move no row to another chunk
        days, m, n = 23, 3, 4
        order = (lambda rows: [line for row in rows for line in (row, "")]) if blank_lines else None
        cells = self.write(tmp_path / "e.csv", days, m, n, order)
        monkeypatch.setattr(numerics, "_ELEMENT_BUDGET", 5 * m * n)  # five days a chunk
        got = self.collect(tmp_path / "e.csv", days, n)
        assert {samples.shape[1] for _, samples in got} == {m}
        assert [sl for sl, _ in got] == numerics.day_chunks(days, m * n)
        assert np.array_equal(np.concatenate([samples for _, samples in got]), cells)

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:-1], "11 rows but the panel's 4 days need 12 \\(3 a day\\)"),
        (lambda rows: [rows[1], rows[0], *rows[2:]],
         "row 2: replicate '1' does not match panel order \\(expected '0'\\)"),
        (lambda rows: [*rows[:-1], rows[-1].replace(",", ",x", 1)],
         "row 13: replicate 'x2' does not match panel order \\(expected '2'\\)"),
    ], ids=["ragged", "swapped", "renamed"])
    def test_bad_keys_hand_nothing_over(self, tmp_path, edit, message):
        # the four days make one chunk, which holds the bad key
        self.write(tmp_path / "e.csv", 4, 3, 2, edit)
        with pytest.raises(IngestError, match=message):
            self.collect(tmp_path / "e.csv", 4, 2, got=(got := []))
        assert got == []

    def test_chunks_before_the_first_row_out_of_order_are_handed_over(self, tmp_path,
                                                                       monkeypatch):
        monkeypatch.setattr(numerics, "_ELEMENT_BUDGET", 3 * 2)  # one day a chunk
        cells = self.write(tmp_path / "e.csv", 4, 3, 2,
                           lambda rows: [*rows[:6], rows[7], rows[6], *rows[8:]])
        with pytest.raises(IngestError, match="row 8: replicate '1' does not match"):
            self.collect(tmp_path / "e.csv", 4, 2, got=(got := []))
        assert [sl for sl, _ in got] == [slice(0, 1), slice(1, 2)]
        assert np.array_equal(np.concatenate([samples for _, samples in got]), cells[:2])

    def test_bad_cell_comes_before_bad_keys_and_start(self, tmp_path):
        # a ragged last day, and a negative cell after the first day
        def edit(rows):
            rows[5] = rows[5].rsplit(",", 1)[0] + ",-1.5"
            return rows[:-1]

        self.write(tmp_path / "e.csv", 4, 3, 2, edit)
        with pytest.raises(ValueError, match="row 7: negative rainfall in column 4"):
            self.collect(tmp_path / "e.csv", 4, 2)

        def refuse(path):
            """Refuse the first chunk, as diagnose does: raised once the file is read."""
            refused = None
            for _ in read_ensemble(path, panel_of(4, 2)):
                refused = refused or ValueError("refused")
            raise refused

        self.write(tmp_path / "f.csv", 4, 3, 2, lambda rows: [*rows[:5], "d1,2,1,abc",
                                                              *rows[6:]])
        with pytest.raises(ValueError, match="row 7: non-numeric value 'abc'"):
            refuse(tmp_path / "f.csv")
        self.write(tmp_path / "h.csv", 4, 3, 2, lambda rows: [rows[1], rows[0], *rows[2:]])
        with pytest.raises(ValueError, match="row 2: replicate '1'"):
            refuse(tmp_path / "h.csv")
        self.write(tmp_path / "g.csv", 4, 3, 2)
        with pytest.raises(ValueError, match="refused"):
            refuse(tmp_path / "g.csv")

    def test_leaving_after_the_first_chunk_closes_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(numerics, "_ELEMENT_BUDGET", 3 * 2)  # one day a chunk
        self.write(tmp_path / "e.csv", 4, 3, 2)
        # a file object freed unclosed warns from its finalizer, where an error is lost
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in read_ensemble(tmp_path / "e.csv", panel_of(4, 2)):
                break
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestDayNormals:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10**6), max_size=6), st.integers(1, 5), st.integers(1, 7),
           st.integers(0, 2**32 - 1), st.integers(0, 30))
    def test_equals_the_per_day_draws(self, days, m, n, seed, tag):
        got = day_normals(days, m, n, seed, tag)
        assert got.shape == (len(days), m, n)
        for slot, day in zip(got, days):
            assert slot.tobytes() == substream(seed, tag, day).standard_normal((m, n)).tobytes()
        assert day_normals(np.array(days, dtype=int), m, n, seed, tag).tobytes() == got.tobytes()

    def test_holds_one_array(self, traced_peak):
        peak, z = traced_peak(lambda: day_normals(range(40), 30, 50, 1, 0))
        assert peak <= 1.1 * z.nbytes
