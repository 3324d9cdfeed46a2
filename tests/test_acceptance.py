"""Acceptance battery: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS lines. Criteria 1 and 2 are the desk-scale replicas of the
simulation-study round trip (50 UK-box locations, 500 days, true
lengthscale 450, 13-point grid on [200, 800] with common random numbers);
criterion 10 records what is deliberately out of reach without the real
reanalysis/observation archives.
"""

import time

import numpy as np
import pytest
from scipy import stats

import raincop as rc
from raincop.cli import main
from raincop.copula import substream
from raincop.estimation import energy_score_unbiased
from raincop.marginals import mixture_cdf, mixture_quantile
from raincop.numerics import spd_factorize
from raincop.spatial import (LocationTable, MaternParams, build_distance_matrix,
                             matern_kernel)

TOL_THETA = 0.15 * 450.0
CRPS_GAUSS_AT_MEAN = 0.23369497725510907


def _recovery_run(p, data_seed, cfg_seed):
    spec = rc.SynthSpec(seed=data_seed, p=p)  # defaults pin the desk-scale replica
    res = rc.simulate_dataset(spec)
    cfg = rc.ScoreConfig(seed=cfg_seed, m=30)
    search = rc.ThetaSearchSpec(lower=200.0, upper=800.0, grid_size=13)
    est = rc.estimate_theta(res.panel.values, res.field, res.distance, cfg, search)
    return est.theta_hat


def test_criterion_1_lengthscale_recovery_censored():
    t0 = time.perf_counter()
    hats = [_recovery_run(0.6, 100 + k, 1000 + k) for k in range(10)]
    hits = sum(abs(h - 450.0) <= TOL_THETA for h in hats)
    elapsed = time.perf_counter() - t0
    assert hits >= 9, f"only {hits}/10 within +-15%: {hats}"
    assert elapsed <= 300.0
    print(f"\nACCEPTANCE 1 PASS — censored recovery {hits}/10 within +-15% "
          f"of 450 ({elapsed:.0f}s)")


def test_criterion_2_lengthscale_recovery_uncensored():
    t0 = time.perf_counter()
    hats = [_recovery_run(1.0, 100 + k, 1000 + k) for k in range(10)]
    hits = sum(abs(h - 450.0) <= TOL_THETA for h in hats)
    elapsed = time.perf_counter() - t0
    assert hits >= 9, f"only {hits}/10 within +-15%: {hats}"
    assert elapsed <= 300.0
    print(f"ACCEPTANCE 2 PASS — uncensored recovery {hits}/10 within +-15% "
          f"of 450 ({elapsed:.0f}s)")


def test_criterion_3_energy_score_unbiased():
    mean = np.array([0.2, -0.4, 1.0])
    a = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.0]])
    lower = spd_factorize(a).lower
    obs = np.array([0.5, 0.0, -1.0])
    beta = 0.5

    rng = substream(300, 0)
    n_rep, m = 10_000, 5
    draws = rng.standard_normal((n_rep, m, 3)) @ lower.T + mean
    estimates = np.array([energy_score_unbiased(draws[k][None], obs[None], beta)[0]
                          for k in range(n_rep)])
    assert np.all(estimates >= 0.0), "estimator went negative at beta = 0.5"

    big = substream(300, 1).standard_normal((1_000_000, 3)) @ lower.T + mean
    term_obs = 2.0 * np.linalg.norm(big - obs, axis=1) ** beta
    term_pair = np.linalg.norm(big[0::2] - big[1::2], axis=1) ** beta
    reference = term_obs.mean() - term_pair.mean()

    se = np.sqrt(np.var(estimates, ddof=1) / n_rep
                 + np.var(term_obs, ddof=1) / term_obs.size
                 + np.var(term_pair, ddof=1) / term_pair.size)
    gap = abs(estimates.mean() - reference)
    assert gap <= 3.0 * se, f"gap {gap:.5f} vs 3se {3 * se:.5f}"
    print(f"ACCEPTANCE 3 PASS — unbiasedness gap {gap:.5f} <= 3se {3 * se:.5f}; "
          f"all {n_rep} draws nonnegative")


def test_criterion_4_crps_oracle():
    draws = substream(400, 0).standard_normal(100_000)
    val = rc.crps_sample(draws.reshape(1, -1, 1), [[0.0]])[0, 0]
    assert val == pytest.approx(CRPS_GAUSS_AT_MEAN, abs=0.002)
    point = rc.crps_sample(np.full((1, 64, 1), 4.25), [[1.75]])[0, 0]
    assert point == 2.5
    print(f"ACCEPTANCE 4 PASS — Gaussian CRPS {val:.4f} within 0.002 of "
          f"{CRPS_GAUSS_AT_MEAN:.4f}; point forecast reduces to |x-y| exactly")


def test_criterion_5_marginal_correctness():
    laws = [rc.GammaMixture(p=0.3, mu=2.0, phi=1.5),
            rc.GammaMixture(p=0.6, mu=3.0, phi=1.2),
            rc.GammaMixture(p=0.95, mu=0.7, phi=0.4)]
    for law in laws:
        p, mu, phi = law.p, law.mu, law.phi
        assert mixture_cdf(p, mu, phi, 0.0) == 1.0 - law.p  # exact
        for u in (0.701, 0.8, 0.9, 0.99, 1.0 - 1e-6):
            if u <= 1.0 - law.p:
                continue
            y = mixture_quantile(p, mu, phi, u)
            assert mixture_cdf(p, mu, phi, y) == pytest.approx(u, abs=1e-8)

    from tests.test_marginals import TRUTH, synthetic_observations
    x, y = synthetic_observations(n_obs=5000, seed=4)
    fit = rc.jglm_fit(x, y)
    worst = np.abs(fit.coeffs.pack() - TRUTH.pack()).max()
    assert worst <= 0.05
    print(f"ACCEPTANCE 5 PASS — round trips to 1e-8, cdf(0) = 1-p exact, "
          f"coefficient recovery worst error {worst:.4f} <= 0.05")


def test_criterion_6_copula_marginal_preservation():
    law = rc.GammaMixture(p=0.6, mu=3.0, phi=1.2)
    n = 4
    field = rc.MarginalField.homogeneous(law, n, 1)
    locs = LocationTable(ids=tuple(f"s{i}" for i in range(n)),
                         lat=[50.0, 52.0, 54.0, 56.0], lon=[-4.0, -2.0, 0.0, 1.0],
                         elev=[0.0, 0.0, 0.0, 0.0])
    dist = build_distance_matrix(locs, a=0.9)
    cov = rc.build_covariance(dist, MaternParams(theta=8.0))
    joint = rc.joint_forecast(cov, field, [0], 100_000, 600)[0]  # substream(600, 0)
    direct = mixture_quantile(law.p, law.mu, law.phi, substream(600, 1).random(100_000))
    worst = 0.0
    for i in range(n):
        ks = stats.ks_2samp(joint[:, i], direct).statistic
        worst = max(worst, ks)
    assert worst < 0.01
    dry = joint[joint == 0.0]
    assert dry.size > 0 and np.all(dry == 0.0) and np.all(~np.signbit(dry))
    print(f"ACCEPTANCE 6 PASS — worst per-location KS {worst:.4f} < 0.01 at 1e5 "
          f"draws; dry outcomes bit-exact 0.0")


def test_criterion_7_covariance_validity():
    rng = np.random.default_rng(700)
    worst_jitter = 0.0
    for k in range(100):
        n = int(rng.integers(5, 201))
        theta = float(rng.uniform(50.0, 2000.0))
        lat0 = rng.uniform(49.9, 56.0)
        lon0 = rng.uniform(-8.2, 0.0)
        lat = rng.uniform(lat0, lat0 + 2.7, n)
        lon = rng.uniform(lon0, lon0 + 1.8, n)
        mode = k % 3
        if mode == 0:
            a, elev = 0.9, np.full(n, rng.uniform(0.0, 1300.0))
        elif mode == 1:
            a, elev = 1.0, rng.uniform(0.0, 1300.0, n)
        else:
            a, elev = 0.0, rng.uniform(0.0, 2.0e5, n)
        locs = LocationTable(ids=tuple(f"s{i:04d}" for i in range(n)),
                             lat=lat, lon=lon, elev=elev)
        dist = build_distance_matrix(locs, a=a)
        cov = rc.build_covariance(dist, MaternParams(theta=theta))
        worst_jitter = max(worst_jitter, cov.factor.jitter_applied)
        assert cov.factor.jitter_applied <= 1e-8
        assert np.all(np.diag(cov.sigma) == 1.0)
        # kernel monotonicity spot check on this set's parameters
        d1, d2 = np.sort(rng.uniform(1.0, 3000.0, 2))
        if d2 > d1 + 1e-9:
            params = MaternParams(theta=theta)
            assert matern_kernel(d1, params) > matern_kernel(d2, params)
    print(f"ACCEPTANCE 7 PASS — 100 random sets factorized, worst jitter "
          f"{worst_jitter:g} <= 1e-8, unit diagonals exact, kernel monotone")


def test_criterion_8_diagnostics_battery():
    # exchangeable rank histograms
    passes = 0
    for run in range(100):
        rng = substream(800, run)
        per_day = []
        for _ in range(40):
            wet = rng.random((10, 10)) < 0.6
            per_day.append(np.where(wet, rng.gamma(1.0, 3.0, (10, 10)), 0.0))
        vals = np.stack(per_day)
        counts, _ = rc.rank_histogram(vals[:, :9], vals[:, 9], bins=10, rng=substream(801, run))
        passes += stats.chisquare(counts).pvalue > 0.01
    assert passes >= 95, f"only {passes}/100 rank histograms uniform"

    # uninformative forecaster AUC
    rng = np.random.default_rng(802)
    n, t = 50, 400
    p = rng.uniform(0.05, 0.95, (n, t))
    field = rc.MarginalField(p=p, mu=np.full((n, t), 3.0), phi=np.full((n, t), 1.0))
    panel = np.where(rng.random((n, t)) < 0.35, 5.0, 0.0)
    auc = rc.roc_auc(field, panel, 1.0, np.linspace(0.0, 1.0, 1001)).auc
    assert auc == pytest.approx(0.5, abs=0.02)

    # correctly-specified vs independence-misspecified variogram score
    spec = rc.SynthSpec(n_locations=25, n_days=100, seed=803)
    res = rc.simulate_dataset(spec)
    cov = rc.build_covariance(res.distance, MaternParams(theta=spec.theta_true))
    from raincop.spatial import CovarianceMatrix
    eye = CovarianceMatrix(sigma=np.eye(25), params=cov.params,
                           factor=spd_factorize(np.eye(25)))
    days = range(spec.n_days)
    good = rc.joint_forecast(cov, res.field, days, 40, 804, 0)  # substream(804, 0, day)
    bad = rc.joint_forecast(eye, res.field, days, 40, 804, 1)
    obs = res.panel.values
    vg = rc.variogram_score(good, obs, res.distance)  # one score per day
    vb = rc.variogram_score(bad, obs, res.distance)
    wins = int(np.sum(vg < vb))
    assert wins >= 90, f"correct forecaster won only {wins}/100 days"
    print(f"ACCEPTANCE 8 PASS — rank histograms {passes}/100 uniform, "
          f"uninformative AUC {auc:.3f}, variogram wins {wins}/100 days")


def test_criterion_9_cli_determinism(tmp_path):
    def run(args):
        assert main([str(a) for a in args]) == 0

    fx = tmp_path / "fx"
    fx2 = tmp_path / "fx2"
    for out in (fx, fx2):
        run(["synth", "--out", out, "--seed", "9", "--n-locations", "8",
             "--days", "60"])
    files = ["locations.csv", "rainfall.csv", "marginals.csv", "truth.json"]
    assert all((fx / f).read_bytes() == (fx2 / f).read_bytes() for f in files)

    fits = []
    for out in (tmp_path / "f1", tmp_path / "f2"):
        run(["fit-marginals", "--locations", fx / "locations.csv",
             "--rainfall", fx / "rainfall.csv", "--out", out, "--seed", "9"])
        fits.append((out / "coefficients.txt").read_bytes()
                    + (out / "marginals.csv").read_bytes())
    assert fits[0] == fits[1]

    ests = []
    for out, threads in ((tmp_path / "e1", "1"), (tmp_path / "e2", "4")):
        run(["estimate-theta", "--locations", fx / "locations.csv",
             "--rainfall", fx / "rainfall.csv", "--marginals", fx / "marginals.csv",
             "--grid", "5", "--m", "8", "--seed", "9",
             "--threads", threads, "--out", out])
        ests.append((out / "profile.csv").read_bytes()
                    + (out / "summary.json").read_bytes())
    assert ests[0] == ests[1]

    sims = []
    for out in (tmp_path / "s1", tmp_path / "s2"):
        run(["simulate", "--locations", fx / "locations.csv",
             "--rainfall", fx / "rainfall.csv", "--marginals", fx / "marginals.csv",
             "--theta", "450", "--m", "10", "--seed", "9", "--out", out])
        sims.append((out / "ensemble.csv").read_bytes())
    assert sims[0] == sims[1]

    diags = []
    for out in (tmp_path / "d1", tmp_path / "d2"):
        run(["diagnose", "--locations", fx / "locations.csv",
             "--rainfall", fx / "rainfall.csv", "--marginals", fx / "marginals.csv",
             "--ensemble", tmp_path / "s1" / "ensemble.csv",
             "--seed", "9", "--out", out])
        diags.append(b"".join((out / f).read_bytes() for f in
                              ("diagnostics.json", "rank_hist.csv", "ecdf.csv",
                               "crosscorr.csv")))
    assert diags[0] == diags[1]
    print("ACCEPTANCE 9 PASS — all five subcommands byte-identical across "
          "reruns and thread counts")


def test_criterion_10_real_data_scope_statement():
    # No assertion beyond the record: the real-data metrics (CRPS/energy/
    # variogram tables, AUC/rank/ECDF/cross-correlation figures on the UK
    # archives) and the neural feature pipeline are out of scope here; the
    # synthetic and property-based criteria above stand in for them, and
    # criterion 11 tests the claim for locations outside the training set.
    print("ACCEPTANCE 10 NOTE — real-data tables/figures are not reproduced "
          "at desk scale (no reanalysis/observation archives, no neural "
          "refinement); criteria 1-9 and 11 are the substitute gate")


def test_criterion_11_held_out_locations():
    """Forecasts at sites outside the training set keep the copula's skill.

    On 60 sites x 500 days with link-linear marginals, the marginals and the
    lengthscale are fitted on sites 0-49 only. At the 10 held-out sites, the
    fitted model's joint forecast (m = 50) must beat the independent
    forecaster on the energy and variogram scores, and lie within 0.02 of the
    true-lengthscale forecaster on the energy score, on every seed. All three
    forecasters share the held-out marginals and the same normals.
    """
    from raincop.marginals import predict_field
    from raincop.spatial import CovarianceMatrix

    coeffs = rc.JglmCoefficients(0.4, [0.6, -0.4, 0.25], 1.1, [0.3, -0.2, 0.15],
                                 0.2, [0.2, 0.1, -0.15])
    n, t, m = 60, 500, 50
    train, test = np.arange(50), np.arange(50, 60)
    margins = []
    for seed in range(5):
        spec = rc.SynthSpec(n_locations=n, n_days=t, coeffs=coeffs, seed=seed)
        res = rc.simulate_dataset(spec)
        features = res.features.reshape(t, n, -1)
        obs = res.panel.values
        fit = rc.jglm_fit(features[:, train].reshape(-1, 3), obs[:, train])
        field_train, field_test = (
            predict_field(fit.coeffs, fit.transform, features[:, sites].reshape(-1, 3),
                          sites.size, t) for sites in (train, test))
        est = rc.estimate_theta(obs[:, train], field_train, res.distance.subset(train),
                                rc.ScoreConfig(seed=seed), rc.ThetaSearchSpec(200.0, 800.0))
        distance = res.distance.subset(test)
        eye = np.eye(test.size)
        covs = {"copula": rc.build_covariance(distance, MaternParams(theta=est.theta_hat)),
                "true": rc.build_covariance(distance, MaternParams(theta=spec.theta_true)),
                "independent": CovarianceMatrix(sigma=eye, params=MaternParams(theta=1.0),
                                                factor=spd_factorize(eye))}
        es, vs = {}, {}
        for name, cov in covs.items():
            ens = rc.joint_forecast(cov, field_test, range(t), m, seed, 110)
            es[name] = energy_score_unbiased(ens, obs[:, test], rc.ScoreConfig.beta).mean()
            vs[name] = rc.variogram_score(ens, obs[:, test], distance).mean()
        assert es["copula"] < es["independent"], (seed, es)
        assert abs(es["copula"] - es["true"]) <= 0.02, (seed, es)
        assert vs["copula"] < vs["independent"], (seed, vs)
        margins.append((seed, est.theta_hat, es["independent"] - es["copula"],
                        es["copula"] - es["true"], vs["independent"] - vs["copula"]))
    print("\nACCEPTANCE 11 PASS — held-out sites, per seed (theta_hat, ES margin over "
          "independent, ES minus true-theta, VS margin over independent): "
          + "; ".join(f"{s}: {th:.0f}, {a:.4f}, {b:+.4f}, {c:.3f}"
                      for s, th, a, b, c in margins))
