"""Energy-score estimator and lengthscale-search tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raincop import estimation, numerics
from raincop.copula import censor, censor_thresholds, obs_to_gaussian, substream
from raincop.estimation import (ProfilePoint, ScoreConfig, ThetaSearchSpec,
                                energy_score_unbiased, estimate_theta, write_profile,
                                write_summary, _grid_vertex, _objective_terms)
from raincop.synth import SynthSpec, simulate_dataset


def one_block(samples, obs, beta=0.5) -> float:
    """energy_score_unbiased of one (m, n) block against its (n,) observation."""
    return float(energy_score_unbiased(np.asarray(samples)[None], np.asarray(obs)[None],
                                       beta)[0])


class TestEnergyScore:
    def test_zero_when_samples_equal_obs(self):
        obs = np.array([1.0, -2.0, 0.5])
        samples = np.tile(obs, (5, 1))
        assert one_block(samples, obs, 0.5) == 0.0

    def test_hand_case_m2(self):
        # (2/2)(1+1) - (1/2)(2+2) = 0 at beta = 1
        samples = np.array([[0.0], [2.0]])
        assert one_block(samples, np.array([1.0]), 1.0) == pytest.approx(0.0)

    def test_nonnegative_for_beta_leq_one(self):
        # exact zero is attainable at beta = 1 (triangle equality), so allow
        # ulp-level roundoff there; at beta = 0.5 equality is measure-zero
        rng = np.random.default_rng(21)
        for _ in range(300):
            m = rng.integers(2, 12)
            n = rng.integers(1, 6)
            samples = rng.standard_normal((m, n)) * rng.uniform(0.1, 5.0)
            obs = rng.standard_normal(n)
            assert one_block(samples, obs, 0.5) >= 0.0
            assert one_block(samples, obs, 1.0) >= -1e-12

    def test_unbiasedness_light(self):
        # mean over repeated small-m estimates matches a large paired-sample
        # MC estimate of the population score
        rng = np.random.default_rng(3)
        obs = np.array([0.3, -0.1])
        n_rep, m = 4000, 4
        draws = rng.standard_normal((n_rep, m, 2))
        estimates = [one_block(draws[k], obs, 0.5) for k in range(n_rep)]
        big = rng.standard_normal((400_000, 2))
        term_obs = 2.0 * np.mean(np.linalg.norm(big - obs, axis=1) ** 0.5)
        pair = np.linalg.norm(big[0::2] - big[1::2], axis=1) ** 0.5
        ref = term_obs - pair.mean()
        se = np.std(estimates, ddof=1) / np.sqrt(n_rep)
        assert np.mean(estimates) == pytest.approx(ref, abs=4 * se + 0.003)

    def test_variance_shrinks_with_m(self):
        obs = np.zeros(3)
        variances = []
        for m in (2, 8, 32):
            vals = [one_block(substream(9, m, k).standard_normal((m, 3)), obs, 0.5)
                    for k in range(400)]
            variances.append(np.var(vals))
        assert variances[0] > variances[1] > variances[2]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            energy_score_unbiased(np.zeros((1, 3, 2)), np.zeros((1, 3)), 0.5)
        with pytest.raises(ValueError):
            energy_score_unbiased(np.zeros((1, 1, 2)), np.zeros((1, 2)), 0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScoreConfig(beta=2.0)
        with pytest.raises(ValueError):
            ScoreConfig(m=1)


def small_case(seed=5, n=10, days=80):
    spec = SynthSpec(n_locations=n, n_days=days, seed=seed)
    res = simulate_dataset(spec)
    return res


def objective(theta, panel_values, field, distance, cfg):
    """The summed per-day scores of one theta, as estimate_theta scores a grid point."""
    return float(_objective_terms([theta], obs_to_gaussian(panel_values, field),
                                  censor_thresholds(field), distance, cfg, 3.5).sum())


class TestSrObjective:
    def test_self_consistency_arch(self):
        res = small_case()
        cfg = ScoreConfig(seed=17, m=30)
        args = (res.panel.values, res.field, res.distance, cfg)
        at_truth = objective(450.0, *args)
        assert at_truth < objective(112.5, *args)
        assert at_truth < objective(1800.0, *args)

    def test_bitwise_deterministic(self):
        res = small_case()
        cfg = ScoreConfig(seed=3, m=10)
        a = objective(300.0, res.panel.values, res.field, res.distance, cfg)
        b = objective(300.0, res.panel.values, res.field, res.distance, cfg)
        assert a == b

    def test_first_days_score_as_the_cut_panel(self):
        # day d's draws depend only on (seed, d): the terms of a panel's first
        # k days are those of the panel cut to k days, bit for bit
        res = small_case(days=12)
        cfg = ScoreConfig(seed=8, m=8)
        obs = obs_to_gaussian(res.panel.values, res.field)
        thr = censor_thresholds(res.field)
        thetas = [350.0, 600.0]
        full = _objective_terms(thetas, obs, thr, res.distance, cfg, 3.5)
        for k in (1, 5, 11):
            cut = _objective_terms(thetas, obs[:k], thr[:k], res.distance, cfg, 3.5)
            assert np.array_equal(cut, full[:, :k])


class TestEstimateTheta:
    def test_recovers_bracket_and_profile(self):
        res = small_case(seed=2, n=20, days=150)
        cfg = ScoreConfig(seed=40, m=20)
        search = ThetaSearchSpec(lower=200.0, upper=800.0, grid_size=13)
        result = estimate_theta(res.panel.values, res.field, res.distance, cfg, search)
        assert not result.boundary
        assert 250.0 < result.theta_hat < 700.0
        assert len(result.profile) == 13
        # unimodal up to MC noise: one sign change after 3-point smoothing
        scores = np.array([pt.score for pt in result.profile])
        smooth = np.convolve(scores, np.ones(3) / 3.0, mode="valid")
        signs = np.sign(np.diff(smooth))
        changes = np.sum(np.diff(signs[signs != 0]) != 0)
        assert changes == 1

    def test_boundary_warning(self):
        res = small_case(seed=6, n=8, days=40)
        cfg = ScoreConfig(seed=41, m=8)
        search = ThetaSearchSpec(lower=1200.0, upper=2400.0, grid_size=5)
        with pytest.warns(UserWarning):
            result = estimate_theta(res.panel.values, res.field, res.distance,
                                    cfg, search)
        assert result.boundary
        # a minimizer on the lower edge is theta_hat, bracketed by its neighbour
        assert result.grid_argmin == 1200.0
        assert result.refine_bracket == (1200.0, 1500.0)
        assert result.theta_hat == 1200.0

    def test_records_grid_argmin_and_bracket(self):
        res = small_case(seed=3, n=8, days=30)
        cfg = ScoreConfig(seed=42, m=6)
        search = ThetaSearchSpec(lower=200.0, upper=800.0, grid_size=5)
        result = estimate_theta(res.panel.values, res.field, res.distance, cfg, search)
        thetas = [pt.theta for pt in result.profile]
        best = int(np.argmin([pt.score for pt in result.profile]))
        assert result.grid_argmin == thetas[best]
        assert result.refine_bracket == (thetas[max(best - 1, 0)],
                                         thetas[min(best + 1, len(thetas) - 1)])
        lo, hi = result.refine_bracket
        assert lo <= result.theta_hat <= hi
        # theta_hat is the parabolic vertex of the returned profile
        scores = [pt.score for pt in result.profile]
        if 0 < best < len(thetas) - 1:
            h = thetas[best + 1] - thetas[best]
            f_lo, f_b, f_hi = scores[best - 1:best + 2]
            want = thetas[best] + (h / 2) * (f_lo - f_hi) / (f_lo - 2 * f_b + f_hi)
        else:
            want = thetas[best]
        assert result.theta_hat == pytest.approx(want, rel=1e-12)
        assert result.n_evaluations == len(thetas)


# Grids of 3 to 25 points starting in [1, 1000] and spanning [1, 1000].
GRIDS = st.tuples(st.floats(1.0, 1000.0), st.floats(1.0, 1000.0), st.integers(3, 25)).map(
    lambda t: np.linspace(t[0], t[0] + t[1], t[2]))


class TestGridVertex:
    @settings(max_examples=200, deadline=None)
    @given(GRIDS, st.floats(0.0, 1.0), st.floats(1.0, 1e3), st.floats(-100.0, 100.0))
    def test_exact_on_a_quadratic(self, grid, u, curvature, offset):
        # the minimizer lies at least 1e-3 steps inside the half steps at the
        # ends, so the grid argmin is interior
        h = grid[1] - grid[0]
        true_min = grid[0] + h * (0.501 + u * (grid.size - 2.002))
        a = curvature / h ** 2   # a * h^2 in [1, 1e3]: no cancellation to speak of
        theta_hat, best = _grid_vertex(grid, a * (grid - true_min) ** 2 + offset)
        assert 0 < best < grid.size - 1
        assert theta_hat == pytest.approx(true_min, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), GRIDS)
    def test_within_half_step_of_argmin(self, data, grid):
        scores = np.array(data.draw(st.lists(st.floats(-1e100, 1e100), min_size=grid.size,
                                             max_size=grid.size)))
        theta_hat, best = _grid_vertex(grid, scores)
        assert best == int(np.argmin(scores))
        if best in (0, grid.size - 1):
            assert theta_hat == grid[best]
        else:
            half = (grid[best + 1] - grid[best - 1]) / 4.0
            # up to the rounding of theta_b + offset
            assert abs(theta_hat - grid[best]) <= half + np.spacing(theta_hat)
            assert grid[best - 1] <= theta_hat <= grid[best + 1]


def reference_terms(samples, obs, beta):
    """Observation and pair terms of one (m, n) block, one norm at a time."""
    m = samples.shape[0]
    to_obs = [np.linalg.norm(samples[j] - obs) ** beta for j in range(m)]
    pairs = [np.linalg.norm(samples[j] - samples[k]) ** beta
             for j in range(m) for k in range(m) if j != k]
    return 2.0 * sum(to_obs) / m, sum(pairs) / (m * (m - 1))


@st.composite
def stacks(draw):
    """(k, m, n) samples with exactly tied rows and censoring, plus (k, n) obs."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.standard_normal((k, m, n)) * draw(st.sampled_from([0.01, 1.0, 30.0]))
    for _ in range(draw(st.integers(0, 3))):
        b, src, dst = rng.integers(k), rng.integers(m), rng.integers(m)
        samples[b, dst] = samples[b, src]
    thresholds = draw(st.sampled_from([None, 0.0, 0.5]))
    if thresholds is not None:
        samples = censor(samples, np.full(n, thresholds))
    return samples, rng.standard_normal((k, n)), draw(st.sampled_from([0.3, 0.5, 1.0, 1.7]))


class TestStackedKernel:
    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_matches_per_block_reference(self, case):
        samples, obs, beta = case
        got = energy_score_unbiased(samples, obs, beta)
        for b in range(samples.shape[0]):
            term_obs, term_pair = reference_terms(samples[b], obs[b], beta)
            want = term_obs - term_pair
            # relative to the terms, since their difference may cancel to ~0
            tol = 1e-12 * (term_obs + term_pair)
            assert abs(got[b] - want) <= tol
            assert abs(one_block(samples[b], obs[b], beta) - want) <= tol

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 8), st.integers(1, 6),
           st.floats(-3.0, 3.0), st.sampled_from([0.5, 1.0]))
    def test_fully_censored_blocks_tie_exactly(self, k, m, n, level, beta):
        # every draw censors to the threshold, and a dry observation sits on
        # it: all pair and observation distances are exactly zero
        draws = np.random.default_rng(k * m * n).standard_normal((k, m, n)) - 10.0
        thresholds = np.full(n, level)
        sims = censor(draws, thresholds)
        assert np.all(energy_score_unbiased(sims, np.tile(thresholds, (k, 1)), beta) == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(stacks(), st.randoms(use_true_random=False))
    def test_location_permutation_invariance(self, case, rnd):
        samples, obs, beta = case
        perm = list(range(samples.shape[2]))
        rnd.shuffle(perm)
        a = energy_score_unbiased(samples, obs, beta)
        b = energy_score_unbiased(samples[:, :, perm], obs[:, perm], beta)
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)


@pytest.fixture(scope="module")
def batched_case():
    res = small_case(seed=9, n=14, days=41)
    return res, obs_to_gaussian(res.panel.values, res.field), censor_thresholds(res.field)


class TestBatchedObjective:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.floats(150.0, 900.0), min_size=1, max_size=6),
           st.integers(0, 1000))
    def test_grid_call_equals_one_theta_calls(self, batched_case, thetas, seed):
        res, obs_gauss, thresholds = batched_case
        cfg = ScoreConfig(seed=seed, m=5)
        args = (obs_gauss, thresholds, res.distance, cfg, 3.5)
        grid = _objective_terms(thetas, *args)
        singles = np.vstack([_objective_terms([t], *args) for t in thetas])
        assert np.array_equal(grid, singles)

    @pytest.mark.filterwarnings("ignore:grid minimizer")
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 1000))
    def test_ragged_chunks_and_single_theta_groups(self, batched_case, days_per_chunk,
                                                   seed):
        # n = 14, m = 4: a budget of days_per_chunk * m * n elements splits the
        # 41 days raggedly, and is too small for two 14 x 14 factors, so every
        # theta is a group of its own
        res, _, _ = batched_case
        cfg = ScoreConfig(seed=seed, m=4)
        search = ThetaSearchSpec(lower=200.0, upper=800.0, grid_size=7)
        args = (res.panel.values, res.field, res.distance, cfg, search)
        base = estimate_theta(*args)
        budget = days_per_chunk * cfg.m * 14
        assert 41 % days_per_chunk and 25 % days_per_chunk and budget < 2 * 14 * 14
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_ELEMENT_BUDGET", budget)
            groups, group_terms = [], estimation._group_terms

            def counted(thetas, *rest):
                groups.append(len(thetas))
                return group_terms(thetas, *rest)

            mp.setattr(estimation, "_group_terms", counted)
            assert len(numerics.day_chunks(41, cfg.m * 14)) == -(-41 // days_per_chunk)
            chunked = estimate_theta(*args)
        assert groups == [1] * 7
        np.testing.assert_allclose([p.score for p in chunked.profile],
                                   [p.score for p in base.profile], rtol=1e-12)
        np.testing.assert_allclose([p.mc_stderr for p in chunked.profile],
                                   [p.mc_stderr for p in base.profile], rtol=1e-12)
        assert chunked.theta_hat == base.theta_hat


class TestWriters:
    def test_profile_csv(self, tmp_path):
        profile = [ProfilePoint(theta=200.0, score=1.5, mc_stderr=0.1),
                   ProfilePoint(theta=250.0, score=1.25, mc_stderr=0.2)]
        path = tmp_path / "profile.csv"
        write_profile(path, profile)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,score,mc_stderr"
        assert lines[1] == "200.0,1.5,0.1"

    def test_summary_json_deterministic(self, tmp_path):
        from raincop.estimation import EstimateResult
        result = EstimateResult(theta_hat=440.0, profile=[], boundary=False,
                                grid_argmin=450.0, refine_bracket=(400.0, 500.0),
                                n_evaluations=20, wall_clock_s=1.23)
        cfg = ScoreConfig(seed=7)
        search = ThetaSearchSpec(lower=200.0, upper=800.0)
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        write_summary(p1, result, cfg, search)
        result.wall_clock_s = 99.0  # must not leak into the file
        write_summary(p2, result, cfg, search)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"wall" not in p1.read_bytes()
        summary = json.loads(p1.read_text())
        assert summary["grid_argmin"] == 450.0
        assert summary["refine_bracket"] == [400.0, 500.0]
