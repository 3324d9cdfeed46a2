"""Verification-diagnostics tests with brute-force and closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from raincop import numerics
from raincop.copula import joint_forecast, substream
from raincop.diagnostics import (CoMoments, crps_sample, cross_correlation, ecdf_curve,
                                 rank_histogram, rmsb_mab, roc_auc, variogram_score)
from raincop.marginals import GammaMixture, MarginalField, mixture_cdf
from raincop.spatial import DistanceMatrix, LocationTable
from raincop.synth import SynthSpec, simulate_dataset

CRPS_STD_NORMAL_AT_MEAN = 0.23369497725510907  # (sqrt(2)-1)/sqrt(pi), quadrature-checked
TAUS = np.linspace(0.0, 1.0, 1001)  # the command line's default tau grid


def make_ensemble(rng, n_days=40, m=9, n=6, p=0.6):
    """(n_days, m, n) samples and (n_days, n) observations, drawn day by day."""
    days = []
    for _ in range(n_days):
        wet = rng.random((m + 1, n)) < p
        days.append(np.where(wet, rng.gamma(1.0, 2.0, (m + 1, n)), 0.0))
    vals = np.stack(days)
    return vals[:, :m], vals[:, m]


def crps_cell(samples, y) -> float:
    """crps_sample of one cell: an (m,) sample against the observation y."""
    return float(crps_sample(np.reshape(samples, (1, -1, 1)), [[y]])[0, 0])


def variogram_day(samples, obs, distance) -> float:
    """variogram_score of one day's (m, n) ensemble."""
    return float(variogram_score(np.asarray(samples)[None], np.asarray(obs)[None],
                                 distance)[0])


class TestCrps:
    def test_zero_when_equal(self):
        assert crps_cell(np.full(7, 2.5), 2.5) == 0.0

    def test_point_forecast_reduces_to_abs_error(self):
        assert crps_cell(np.full(11, 4.0), 1.5) == 2.5

    def test_gaussian_closed_form(self):
        draws = substream(0, 50).standard_normal(100_000)
        assert crps_cell(draws, 0.0) == pytest.approx(CRPS_STD_NORMAL_AT_MEAN, abs=0.002)

    def test_sorted_pair_sum_vs_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = rng.integers(2, 15)
            x = rng.standard_normal(m) * 3.0
            y = rng.standard_normal()
            brute = (np.abs(x - y).mean()
                     - np.abs(x[:, None] - x[None, :]).sum() / (2.0 * m * (m - 1)))
            assert crps_cell(x, y) == pytest.approx(brute, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = rng.integers(2, 20)
            assert crps_cell(rng.standard_normal(m), rng.standard_normal()) >= -1e-12


class TestVariogram:
    def two_by_two(self):
        return DistanceMatrix(values=np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_zero_for_perfect_ensemble(self):
        obs = np.array([1.0, 3.0])
        assert variogram_day(np.tile(obs, (4, 1)), obs, self.two_by_two()) == 0.0

    def test_hand_case(self):
        samples, obs = np.array([[0.0, 0.0], [0.0, 4.0]]), np.array([0.0, 2.0])
        assert variogram_day(samples, obs, self.two_by_two()) == 0.0

    def test_zero_distance_weight_warning(self):
        d = DistanceMatrix(values=np.zeros((2, 2)))
        samples, obs = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5])
        with pytest.warns(UserWarning):
            assert variogram_day(samples, obs, d) == 0.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        n, m = 5, 8
        samples = rng.gamma(1.0, 2.0, (m, n))
        obs = rng.gamma(1.0, 2.0, n)
        vals = rng.uniform(1.0, 4.0, (n, n))
        d_vals = 0.5 * (vals + vals.T)
        np.fill_diagonal(d_vals, 0.0)
        d = DistanceMatrix(values=d_vals)
        perm = rng.permutation(n)
        d_p = DistanceMatrix(values=d_vals[np.ix_(perm, perm)])
        assert variogram_day(samples[:, perm], obs[perm], d_p) == pytest.approx(
            variogram_day(samples, obs, d), rel=1e-12)

    def test_allocates_weights_terms_and_one_row_block(self, traced_peak):
        # the n x n weights, the (1, n, n) terms of a one-day chunk and one row
        # block of at most 65536 cells (0.73 n^2 at n = 300), plus ufunc buffers
        rng = np.random.default_rng(6)
        n = 300
        samples, obs = make_ensemble(rng, n_days=40, m=20, n=n)
        samples = np.ascontiguousarray(samples)  # as diagnose reads it: no copy is made
        d = rng.uniform(1.0, 4.0, (n, n))
        d += d.T
        np.fill_diagonal(d, 0.0)
        distance = DistanceMatrix(values=d)
        peak, _ = traced_peak(lambda: variogram_score(samples, obs, distance))
        assert peak <= 3.25 * n * n * 8

    def test_correct_beats_independent_forecaster(self):
        spec = SynthSpec(n_locations=25, n_days=100, seed=77)
        res = simulate_dataset(spec)
        from raincop.numerics import spd_factorize
        from raincop.spatial import MaternParams, build_covariance
        cov = build_covariance(res.distance, MaternParams(theta=spec.theta_true))
        eye_cov = type(cov)(sigma=np.eye(25), params=cov.params,
                            factor=spd_factorize(np.eye(25)))
        wins = 0
        m = 40
        days = range(spec.n_days)
        good = joint_forecast(cov, res.field, days, m, 5, 0)  # day d from substream(5, 0, d)
        bad = joint_forecast(eye_cov, res.field, days, m, 5, 1)
        for day in days:
            obs = res.panel.values[day]
            vg = variogram_day(good[day], obs, res.distance)
            vb = variogram_day(bad[day], obs, res.distance)
            wins += vg < vb
        assert wins >= 0.9 * spec.n_days


class TestRmsbMab:
    def test_zero_bias(self):
        obs = np.array([1.0, 2.0])
        odd = np.array([[0.5, 1.5], [1.0, 2.0], [4.0, 3.0]])  # medians = obs
        assert rmsb_mab(odd[None], obs[None]) == (0.0, 0.0)

    def test_single_cell(self):
        rmsb, mab = rmsb_mab(np.array([[[1.0], [1.0]]]), np.array([[3.0]]))
        assert rmsb == 2.0 and mab == 2.0

    def test_random_panel_reference(self):
        rng = np.random.default_rng(4)
        samples, obs = make_ensemble(rng, n_days=12, m=7, n=5)
        meds = np.array([np.median(x, axis=0) for x in samples])
        rmsb_ref = float(np.sqrt(np.mean((obs - meds) ** 2)))
        mab_ref = float(np.mean(np.abs(obs - meds)))
        rmsb, mab = rmsb_mab(samples, obs)
        assert rmsb == pytest.approx(rmsb_ref, rel=1e-12)
        assert mab == pytest.approx(mab_ref, rel=1e-12)


class TestRocAuc:
    def test_oracle_forecaster(self):
        # exceedance probability 1 exactly on event cells, 0 otherwise
        rng = np.random.default_rng(5)
        events = rng.random((6, 30)) < 0.3
        q = 1.0
        # p = 1 with huge mu -> 1 - F(q) ~ 1; p ~ 0 -> 1 - F(q) = ~0
        p = np.where(events, 1.0, 0.0)
        field = MarginalField(p=p, mu=np.full(p.shape, 1e8), phi=np.full(p.shape, 1.0))
        panel = np.where(events, q + 1.0, 0.0)
        curve = roc_auc(field, panel, q, TAUS)
        assert curve.auc == pytest.approx(1.0, abs=1e-9)

    def test_uninformative_forecaster(self):
        rng = np.random.default_rng(6)
        n, t = 40, 300
        p = rng.uniform(0.05, 0.95, (n, t))
        field = MarginalField(p=p, mu=np.full((n, t), 3.0), phi=np.full((n, t), 1.0))
        panel = np.where(rng.random((n, t)) < 0.35, 5.0, 0.0)  # independent of p
        curve = roc_auc(field, panel, 1.0, TAUS)
        assert curve.auc == pytest.approx(0.5, abs=0.02)

    def test_brute_force_confusion_matrix(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.1, 0.9, (4, 4))
        field = MarginalField(p=p, mu=rng.uniform(1.0, 5.0, (4, 4)),
                              phi=np.full((4, 4), 1.2))
        panel = np.where(rng.random((4, 4)) < 0.5, rng.gamma(1.0, 3.0, (4, 4)), 0.0)
        q = 0.8
        taus = np.linspace(0.0, 1.0, 21)
        curve = roc_auc(field, panel, q, taus)
        prob = 1.0 - mixture_cdf(field.p, field.mu, field.phi, np.full((4, 4), q))
        events = panel > q
        for tau, fpr, tpr in zip(curve.taus, curve.fpr, curve.tpr):
            signal = (prob > tau) if tau > 0.0 else np.ones_like(events)
            tp = np.sum(signal & events)
            fp = np.sum(signal & ~events)
            assert tpr == pytest.approx(tp / events.sum(), abs=1e-12)
            assert fpr == pytest.approx(fp / (~events).sum(), abs=1e-12)

    def test_auc_is_rank_statistic(self):
        # ordering invariance: the curve depends only on how exceedance
        # probabilities rank against events, so AUC matches the U-statistic
        rng = np.random.default_rng(8)
        p = rng.uniform(0.1, 0.9, (10, 50))
        field = MarginalField(p=p, mu=np.full((10, 50), 3.0), phi=np.full((10, 50), 1.0))
        panel = np.where(rng.random((10, 50)) < p, 4.0, 0.0)  # informative
        q = 1.0
        curve = roc_auc(field, panel, q, TAUS)
        prob = 1.0 - mixture_cdf(field.p, field.mu, field.phi, np.full((10, 50), q))
        events = panel > q
        pe, pq = prob[events], prob[~events]
        u = (np.mean(pe[:, None] > pq[None, :])
             + 0.5 * np.mean(pe[:, None] == pq[None, :]))
        assert curve.auc == pytest.approx(u, abs=2e-3)

    def test_chunked_probabilities_give_the_whole_field_bits(self):
        # a field of two day chunks; the taus are every whole-field probability
        # and the double just below it, so a probability one ulp off either
        # way moves a count
        rng = np.random.default_rng(9)
        t, n, q = 400, 300, 1.0
        assert len(numerics.day_chunks(t, n)) > 1
        field = MarginalField(p=rng.uniform(0.05, 0.95, (t, n)), mu=rng.gamma(2.0, 1.5, (t, n)),
                              phi=rng.uniform(0.5, 2.0, (t, n)))
        panel = np.where(rng.random((t, n)) < 0.4, rng.gamma(1.0, 3.0, (t, n)), 0.0)
        prob = 1 - mixture_cdf(field.p, field.mu, field.phi, np.full((t, n), q))
        taus = np.concatenate([prob.ravel(), np.nextafter(prob.ravel(), -np.inf), [0.0]])
        curve = roc_auc(field, panel, q, taus)
        events = panel > q
        for rate, chosen in ((curve.tpr, events), (curve.fpr, ~events)):
            p_sorted = np.sort(prob[chosen])
            want = 1.0 - np.searchsorted(p_sorted, curve.taus, side="right") / p_sorted.size
            want[curve.taus == 0.0] = 1.0
            assert np.array_equal(rate, want)

    def test_degenerate_panel(self):
        field = MarginalField.homogeneous(GammaMixture(p=0.5, mu=3.0, phi=1.0), 3, 4)
        curve = roc_auc(field, np.zeros((4, 3)), 1.0, TAUS)  # no events
        assert np.isnan(curve.auc)


class TestRankHistogram:
    def test_exchangeable_uniform(self):
        rng = np.random.default_rng(9)
        samples, obs = make_ensemble(rng, n_days=120, m=9, n=10)
        counts, freq = rank_histogram(samples, obs, bins=10, rng=substream(1, 0))
        chi = stats.chisquare(counts)
        assert chi.pvalue > 0.01
        assert freq.sum() == pytest.approx(1.0)

    def test_underprediction_piles_right(self):
        rng = np.random.default_rng(10)
        samples = rng.gamma(1.0, 1.0, (8, 5))
        obs = samples.max(axis=0) + 1.0
        counts, _ = rank_histogram(samples[None], obs[None], bins=9, rng=substream(1, 1))
        assert counts[-1] == 5 and counts[:-1].sum() == 0

    def test_tie_randomization_all_tied(self):
        # every value zero: the rank is pure tie-break, so it must come out
        # uniform over {0, ..., m}
        counts, _ = rank_histogram(np.zeros((400, 9, 4)), np.zeros((400, 4)), bins=10,
                                   rng=substream(1, 2))
        assert stats.chisquare(counts).pvalue > 0.01

    def test_exchangeable_zero_inflated_uniform(self):
        # zero-inflated exchangeable case: obs drawn as an extra member of
        # the same p = 0.5 mixture; ranks uniform only if ties among the
        # exact zeros are randomized correctly
        rng = np.random.default_rng(11)
        days = []
        for _ in range(400):
            wet = rng.random((10, 4)) < 0.5
            days.append(np.where(wet, rng.gamma(1.0, 2.0, (10, 4)), 0.0))
        vals = np.stack(days)
        counts, _ = rank_histogram(vals[:, :9], vals[:, 9], bins=10, rng=substream(1, 3))
        assert stats.chisquare(counts).pvalue > 0.01


class TestEcdf:
    def test_observed_wet_fraction(self):
        obs = np.array([0.0, 0.0, 0.0, 1.0, 2.0])
        _, obs_freq = ecdf_curve(np.ones((1, 2, 5)), obs[None], [0.0])
        assert obs_freq[0] == pytest.approx(0.4)

    def test_beyond_maximum(self):
        rng = np.random.default_rng(12)
        samples, obs = make_ensemble(rng, n_days=5)
        model_freq, obs_freq = ecdf_curve(samples, obs, [1e9])
        assert model_freq[0] == 0.0 and obs_freq[0] == 0.0

    def test_self_samples_agree(self):
        rng = np.random.default_rng(13)
        samples, obs = make_ensemble(rng, n_days=300, m=12, n=8)
        levels = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
        model_freq, obs_freq = ecdf_curve(samples, obs, levels)
        n_obs = 300 * 8
        for mf, of in zip(model_freq, obs_freq):
            se = np.sqrt(max(mf * (1 - mf), 1e-4) / n_obs)
            assert of == pytest.approx(mf, abs=4 * se)


class TestCrossCorrelation:
    def locations(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return LocationTable(ids=tuple(f"s{i}" for i in range(n)),
                             lat=rng.uniform(50.0, 58.0, n),
                             lon=rng.uniform(-6.0, 1.0, n),
                             elev=np.zeros(n))

    def test_center_with_itself(self):
        locs = self.locations(6)
        panel = np.random.default_rng(1).gamma(1.0, 2.0, (6, 50)).T
        center_id, corr = cross_correlation(panel, locs)
        idx = locs.ids.index(center_id)
        assert corr[idx] == pytest.approx(1.0, abs=1e-12)

    def test_white_noise_uncorrelated(self):
        locs = self.locations(8)
        t = 2000
        panel = np.random.default_rng(2).standard_normal((8, t)).T
        _, corr = cross_correlation(panel, locs)
        others = np.delete(corr, np.argmax(corr))
        assert np.all(np.abs(others) < 3.0 / np.sqrt(t))

    def test_decays_with_kernel(self):
        spec = SynthSpec(n_locations=30, n_days=600, seed=5, p=1.0)
        res = simulate_dataset(spec)
        center_id, corr = cross_correlation(res.panel.values, res.locations)
        idx = res.locations.ids.index(center_id)
        from raincop.spatial import MaternParams, matern_kernel
        kern = matern_kernel(res.distance.values[idx],
                             MaternParams(theta=spec.theta_true))
        mask = np.arange(30) != idx
        rho = stats.spearmanr(corr[mask], kern[mask]).statistic
        assert rho > 0.8

    def test_allocates_one_copy_of_its_input(self, traced_peak):
        # a (days * m, n) ensemble: the deviations, squared in place once the
        # cross products are taken, plus n-vectors and ufunc buffers
        locs = self.locations(300)
        values = np.random.default_rng(4).gamma(0.5, 2.0, (40 * 20, 300))
        peak, _ = traced_peak(lambda: cross_correlation(values, locs))
        assert peak <= 1.25 * values.nbytes

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 60), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_matches_two_array_formula_bitwise(self, rows, n, seed):
        # the deviations and their squares as two arrays, as before they shared one
        rng = np.random.default_rng(seed)
        values = np.where(rng.random((rows, n)) < 0.4, 0.0, rng.gamma(0.7, 2.0, (rows, n)))
        values[:, rng.integers(n)] = 1.5  # a constant series
        locs = self.locations(n, seed=seed % 7)
        center_id, corr = cross_correlation(values, locs)
        c = values[:, locs.ids.index(center_id)]
        c_dev = c - c.mean()
        c_ss = float(c_dev @ c_dev)
        dev = values - values.mean(axis=0)
        ss = (dev ** 2).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            want = (c_dev @ dev) / np.sqrt(ss * c_ss)
        want[(ss == 0.0) | (c_ss == 0.0)] = np.nan
        assert np.array_equal(corr, want, equal_nan=True)

    def test_row_blocks_allocate_one_block(self, traced_peak):
        # merged block by block, the correlation holds one block's deviations
        # (an eighth of the rows) beside n-vectors and ufunc buffers
        locs = self.locations(300)
        values = np.random.default_rng(4).gamma(0.5, 2.0, (40 * 20, 300))
        blocks = np.split(values, 8)

        def merge():
            moments = CoMoments()
            return [cross_correlation(block, locs, moments=moments) for block in blocks][-1]

        peak, _ = traced_peak(merge)
        assert peak <= 1.5 * blocks[0].nbytes

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 60), st.integers(1, 30), st.integers(0, 2**32 - 1),
           st.booleans(), st.data())
    def test_row_blocks_merge_to_the_whole(self, rows, n, seed, constant_center, data):
        rng = np.random.default_rng(seed)
        values = np.where(rng.random((rows, n)) < 0.4, 0.0, rng.gamma(0.7, 2.0, (rows, n)))
        values[:, rng.integers(n)] = 1.5  # a zero-variance series
        locs = self.locations(n, seed=seed % 7)
        if constant_center:
            values[:, locs.ids.index(cross_correlation(values, locs)[0])] = 0.0
        whole = cross_correlation(values, locs)
        cuts = sorted(data.draw(st.lists(st.integers(1, rows - 1), max_size=5, unique=True)))
        moments = CoMoments()
        for block in np.split(values, cuts):
            merged = cross_correlation(block, locs, moments=moments)
        assert merged[0] == whole[0] and moments.rows == rows
        # zero-variance series stay NaN; the rest agree to rounding, and bit for bit
        # when the rows come as one block
        assert np.array_equal(np.isnan(merged[1]), np.isnan(whole[1]))
        np.testing.assert_allclose(merged[1], whole[1], rtol=0.0, atol=1e-12)
        if not cuts:
            assert merged[1].tobytes() == whole[1].tobytes()

    def test_center_nearest_the_mean_and_zero_variance(self):
        locs = self.locations(4)
        panel = np.random.default_rng(3).gamma(1.0, 1.0, (4, 30)).T
        gap = (locs.lat - locs.lat.mean()) ** 2 + (locs.lon - locs.lon.mean()) ** 2
        center = int(np.argmin(gap))
        other = (center + 1) % 4
        panel[:, other] = 5.0  # constant series
        center_id, corr = cross_correlation(panel, locs)
        assert center_id == locs.ids[center]
        assert np.isnan(corr[other]) and corr[center] == pytest.approx(1.0, abs=1e-12)


# Array kernels against per-day and per-cell loops. The references below are
# the loops the kernels replaced; the kernels must reproduce them bitwise
# where the arithmetic is the same and within 1e-12 of the terms where the
# summation order changed (the CRPS pair term, once a dot product). A day or
# a cell scored alone, as a stack of one, gives the same bits as inside the
# whole array.

@st.composite
def ensembles(draw):
    """(days, m, n) rain samples and (days, n) observations, with exact zeros,
    tied members and observations tied to members."""
    days = draw(st.integers(1, 5))
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wet = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    scale = draw(st.sampled_from([0.01, 1.0, 30.0]))
    vals = np.where(rng.random((days, m + 1, n)) < wet,
                    rng.gamma(0.8, scale, (days, m + 1, n)), 0.0)
    if draw(st.booleans()):
        vals = np.round(vals, 1)  # many ties among wet values too
    for _ in range(draw(st.integers(0, 4))):  # row m is the observation
        s, src, dst, i = (rng.integers(days), rng.integers(m + 1), rng.integers(m + 1),
                          rng.integers(n))
        vals[s, dst, i] = vals[s, src, i]
    return vals[:, :m], vals[:, m]


def distances(n, seed):
    pts = np.random.default_rng(seed).uniform(0.0, 10.0, (n, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    return DistanceMatrix(values=d)


def reference_variogram(samples, obs, d):
    """One day's score from the full (m, n, n) gap tensor."""
    off = ~np.eye(obs.size, dtype=bool)
    w = np.zeros_like(d)
    w[off] = 1.0 / d[off]
    obs_gap = np.abs(obs[:, None] - obs[None, :])
    sim_gap = np.abs(samples[:, :, None] - samples[:, None, :])
    return float(np.sum(w * (obs_gap - sim_gap.mean(axis=0)) ** 2))


def reference_rank_counts(samples, obs, bins, rng):
    """Ranks drawn day by day, then binned."""
    m = samples.shape[1]
    ranks = []
    for x, y in zip(samples, obs):
        ties = (x == y).sum(axis=0)
        ranks.append((x < y).sum(axis=0) + rng.integers(0, ties + 1))
    return np.bincount((np.concatenate(ranks) * bins) // (m + 1), minlength=bins)


def reference_median_bias(samples, obs):
    sq, ab = 0.0, 0.0
    for x, y in zip(samples, obs):
        diff = y - np.median(x, axis=0)
        sq += float((diff ** 2).sum())
        ab += float(np.abs(diff).sum())
    return np.sqrt(sq / obs.size), ab / obs.size


def all_outputs(samples, obs, distance, bins, levels):
    return (crps_sample(samples, obs),
            variogram_score(samples, obs, distance),
            rank_histogram(samples, obs, bins, substream(4, 20)),
            ecdf_curve(samples, obs, levels),
            rmsb_mab(samples, obs))


class TestArrayKernels:
    @settings(max_examples=150, deadline=None)
    @given(ensembles())
    def test_variogram_matches_gap_tensor_bitwise(self, case):
        samples, obs = case
        dist = distances(obs.shape[1], samples.shape[0])
        got = variogram_score(samples, obs, dist)
        for s in range(samples.shape[0]):
            want = reference_variogram(samples[s], obs[s], dist.values)
            assert got[s] == want
            assert variogram_day(samples[s], obs[s], dist) == want

    @settings(max_examples=150, deadline=None)
    @given(ensembles())
    def test_crps_matches_per_cell_loop(self, case):
        samples, obs = case
        got = crps_sample(samples, obs)
        days, m, n = samples.shape
        for s in range(days):
            for i in range(n):
                x, y = samples[s, :, i], obs[s, i]
                term_obs = np.abs(x - y).mean()
                term_pair = np.abs(x[:, None] - x[None, :]).sum() / (2.0 * m * (m - 1))
                tol = 1e-12 * (term_obs + term_pair)
                assert abs(got[s, i] - (term_obs - term_pair)) <= tol
                assert got[s, i] == crps_cell(x, y)

    @settings(max_examples=150, deadline=None)
    @given(ensembles(), st.integers(1, 13), st.integers(0, 1000))
    def test_rank_counts_match_per_day_draws(self, case, bins, seed):
        samples, obs = case
        bins = min(bins, samples.shape[1] + 1)
        want = reference_rank_counts(samples, obs, bins, substream(seed, 20))
        counts, freq = rank_histogram(samples, obs, bins, substream(seed, 20))
        assert np.array_equal(counts, want)
        assert np.array_equal(freq, want / want.sum())

    @settings(max_examples=150, deadline=None)
    @given(ensembles())
    def test_bias_and_ecdf_match_per_day_loops(self, case):
        samples, obs = case
        rmsb_want, mab_want = reference_median_bias(samples, obs)
        got = rmsb_mab(samples, obs)
        assert got[0] == pytest.approx(rmsb_want, rel=1e-12, abs=1e-300)
        assert got[1] == pytest.approx(mab_want, rel=1e-12, abs=1e-300)
        levels = np.array([0.0, 0.05, 1.0, 30.0])
        model_freq, obs_freq = ecdf_curve(samples, obs, levels)
        assert np.array_equal(model_freq,
                              (samples.reshape(1, -1) > levels[:, None]).mean(axis=1))
        assert np.array_equal(obs_freq, (obs.reshape(1, -1) > levels[:, None]).mean(axis=1))

    @settings(max_examples=60, deadline=None)
    @given(ensembles(), st.integers(1, 4))
    def test_ragged_day_chunks_change_nothing(self, case, days_per_chunk):
        samples, obs = case
        days, m, n = samples.shape
        dist = distances(n, days)
        bins, levels = min(5, m + 1), np.array([0.0, 0.5, 4.0])
        inputs = samples.copy(), obs.copy()
        base = all_outputs(samples, obs, dist, bins, levels)
        assert np.array_equal(samples, inputs[0]) and np.array_equal(obs, inputs[1])
        # chunks of days_per_chunk days scored in day order with the running
        # totals, as diagnose scores an ensemble; fewer and smaller row blocks
        # for the variogram's n x n accumulators
        crps, vario = np.empty((days, n)), np.empty(days)
        rng, rank_counts = substream(4, 20), np.zeros(bins, dtype=int)
        ecdf_counts, bias_sums = np.zeros((2, levels.size + 1), dtype=int), np.zeros(3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_ELEMENT_BUDGET", days_per_chunk * m * n)
            assert len(numerics.day_chunks(days, m * n)) == -(-days // days_per_chunk)
            for sl in numerics.day_chunks(days, m * n):
                x, y = samples[sl], obs[sl]
                crps[sl] = crps_sample(x, y)
                vario[sl] = variogram_score(x, y, dist)
                rank = rank_histogram(x, y, bins, rng, counts=rank_counts)
                ecdf = ecdf_curve(x, y, levels, counts=ecdf_counts)
                bias = rmsb_mab(x, y, sums=bias_sums)
        chunked = crps, vario, rank, ecdf, bias
        for a, b in zip(base, chunked):
            for x, y in zip(np.atleast_1d(a), np.atleast_1d(b)):
                assert np.array_equal(x, y)

    @settings(max_examples=100, deadline=None)
    @given(ensembles(), st.randoms(use_true_random=False))
    def test_variogram_location_permutation_invariance(self, case, rnd):
        samples, obs = case
        n = obs.shape[1]
        dist = distances(n, n)
        perm = list(range(n))
        rnd.shuffle(perm)
        dist_p = DistanceMatrix(values=dist.values[np.ix_(perm, perm)])
        np.testing.assert_allclose(variogram_score(samples[:, :, perm], obs[:, perm], dist_p),
                                   variogram_score(samples, obs, dist), rtol=1e-12, atol=0.0)

    def test_needs_two_members_and_aligned_shapes(self):
        with pytest.raises(ValueError, match="two ensemble members"):
            crps_sample(np.zeros((3, 1, 4)), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="aligned"):
            rmsb_mab(np.zeros((3, 2, 4)), np.zeros((4, 3)))
