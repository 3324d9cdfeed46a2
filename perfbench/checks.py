"""Checks of each stage's output files, computed apart from raincop.

Nothing here imports raincop: files are parsed with numpy and every score is
recomputed from its formula with vectorized numpy. Each check records failures
(the output is wrong) and notes (facts worth printing that do not make an
output wrong) on a Findings object.

How close the estimates come to the generating parameters is reported, not
gated: the locations of one day are strongly correlated, so the sampling error
of a single data set is set by its day count, and a correct fit misses the
+-15 % theta band or the 0.05 coefficient band on some seeds (the acceptance
battery asks for 9 hits in 10 seeds). The gates are what a correct program
meets on every seed: agreement with independent computations on the same data.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
from scipy import optimize, special, stats

REL_TOL = 1e-9          # recomputed diagnostics versus diagnostics.json
FIT_TOL = 1e-3          # intercept-only coefficients versus closed-form MLEs
MLE_TOL = 5e-3          # link-linear coefficients versus the independent MLE
COEF_TOL = 0.05         # link-linear coefficients versus the generating ones (reported)
THETA_REL_TOL = 0.15    # grid argmin versus theta_true (reported; acceptance criterion 1)
DRY_SIGMAS = 5.0        # dry-share bound in across-day standard errors


class Findings:
    def __init__(self):
        self.errors: list = []
        self.notes: list = []

    def fail(self, msg: str) -> None:
        self.errors.append(msg)

    def note(self, msg: str) -> None:
        self.notes.append(msg)


def _header(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n").split(",")


def read_kv(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


def read_locations(path) -> np.ndarray:
    """(n, 3) lat, lon, elev."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3), ndmin=2)


def read_rain(path) -> np.ndarray:
    """(days, n) rainfall from the wide CSV."""
    n = len(_header(path)) - 1
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, n + 1), ndmin=2)


def read_marginals(path, n: int) -> np.ndarray:
    """(days, n, 3) p, mu, phi from the date-major long CSV."""
    vals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3, 4), ndmin=2)
    return vals.reshape(-1, n, 3)


def read_ensemble(path, n_days: int, m: int):
    """(days, m, n) ensemble values, the replicate column, and the file's text."""
    n = len(_header(path)) - 2
    raw = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, n + 2), ndmin=2)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if raw.shape[0] != n_days * m:
        return None, raw[:, 0], text
    return raw[:, 1:].reshape(n_days, m, n), raw[:, 0], text


def blended_distance(locs: np.ndarray, a: float, topo_scale: float) -> np.ndarray:
    geo = np.sqrt(((locs[:, None, :2] - locs[None, :, :2]) ** 2).sum(axis=2))
    topo = np.abs(locs[:, None, 2] - locs[None, :, 2])
    d = a * geo + (1.0 - a) * topo / topo_scale
    np.fill_diagonal(d, 0.0)
    return d


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# -- fit-marginals -----------------------------------------------------------

def check_fit_intercept(inputs: str, fit_dir: str, f: Findings) -> None:
    """alpha0, beta0, gamma0 against logit(wet share), log(wet mean), log(1/shape)."""
    rain = read_rain(os.path.join(inputs, "rainfall.csv")).ravel()
    wet = rain[rain > 0.0]
    share = wet.size / rain.size
    shape, _, _ = stats.gamma.fit(wet, floc=0)
    want = {"alpha0": np.log(share / (1.0 - share)), "beta0": np.log(wet.mean()),
            "gamma0": np.log(1.0 / shape)}
    kv = read_kv(os.path.join(fit_dir, "coefficients.txt"))
    if kv.get("feature_dim") != "0":
        f.fail(f"fit: feature_dim {kv.get('feature_dim')!r}, expected 0")
    for key, value in want.items():
        got = float(kv[key])
        if not abs(got - value) <= FIT_TOL:
            f.fail(f"fit: {key} {got!r} differs from the closed form {value!r} "
                   f"by more than {FIT_TOL}")


def mle_link_linear(x: np.ndarray, y: np.ndarray) -> dict:
    """Maximum-likelihood link-linear coefficients of the zero-gamma mixture.

    logit p, log mu and log phi are affine in the raw features x; the
    negative log-likelihood is the logistic loss of occurrence on every row
    plus the gamma (mean mu, shape 1/phi) negative log-density on wet rows.
    The two parts share no coefficient, so they are minimized apart.
    """
    z = np.column_stack([np.ones(len(x)), x])
    wet = y > 0.0
    d1 = z.shape[1]

    def occurrence(a):
        t = z @ a
        loss = np.sum(np.logaddexp(0.0, t)) - np.sum(t[wet])
        return loss, z.T @ (special.expit(t) - wet)

    zw, yw = z[wet], y[wet]

    def amount(v):
        mu = np.exp(zw @ v[:d1])
        k = np.exp(-(zw @ v[d1:]))
        ratio = np.log(yw * k / mu)
        loss = -np.sum(k * ratio - np.log(yw) - yw * k / mu - special.gammaln(k))
        grad_b = zw.T @ (k * (1.0 - yw / mu))
        grad_g = zw.T @ (k * (ratio + 1.0 - yw / mu - special.digamma(k)))
        return loss, np.concatenate([grad_b, grad_g])

    opts = {"gtol": 1e-9, "ftol": 1e-15, "maxiter": 10_000}
    a = optimize.minimize(occurrence, np.zeros(d1), jac=True, method="L-BFGS-B",
                          options=opts).x
    bg = optimize.minimize(amount, np.zeros(2 * d1), jac=True, method="L-BFGS-B",
                           options=opts).x
    return {"alpha": a, "beta": bg[:d1], "gamma": bg[d1:]}


def read_features(path, n_rows: int) -> np.ndarray:
    d = len(_header(path)) - 2
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(2, 2 + d),
                      ndmin=2).reshape(n_rows, d)


def check_fit_coefficients(inputs: str, fit_dir: str, coeffs: dict, f: Findings) -> None:
    """Fitted coefficients, mapped from standardized back to raw features, against
    an independent MLE (gate) and the generating coefficients (reported)."""
    kv = read_kv(os.path.join(fit_dir, "coefficients.txt"))
    d = int(kv["feature_dim"])
    mean = np.array([float(kv[f"mean.{k}"]) for k in range(d)])
    scale = np.array([float(kv[f"scale.{k}"]) for k in range(d)])
    rain = read_rain(os.path.join(inputs, "rainfall.csv")).ravel()  # date-major cells
    mle = mle_link_linear(read_features(os.path.join(inputs, "features.csv"), rain.size),
                          rain)
    worst = 0.0
    for name in ("alpha", "beta", "gamma"):
        slope = np.array([float(kv[f"{name}.{k}"]) for k in range(d)]) / scale
        got = np.concatenate([[float(kv[f"{name}0"]) - float(slope @ mean)], slope])
        if not np.all(np.abs(got - mle[name]) <= MLE_TOL):
            f.fail(f"fit: {name} {got.tolist()} not within {MLE_TOL} of the "
                   f"maximum-likelihood {mle[name].tolist()}")
        want = np.concatenate([[coeffs[name + "0"]], coeffs[name]])
        worst = max(worst, float(np.max(np.abs(got - want))))
    f.note(f"fit: largest coefficient error against the generating ones {worst:.4f} "
           f"({'within' if worst <= COEF_TOL else 'outside'} {COEF_TOL})")


# -- estimate-theta ----------------------------------------------------------

def check_estimate(est_dir: str, grid: tuple, theta_true: float, f: Findings) -> None:
    prof = np.loadtxt(os.path.join(est_dir, "profile.csv"), delimiter=",", skiprows=1,
                      ndmin=2)
    with open(os.path.join(est_dir, "summary.json"), encoding="utf-8") as fh:
        theta_hat = float(json.load(fh)["theta_hat"])
    thetas = np.linspace(*grid)
    if prof.shape != (thetas.size, 3) or not np.array_equal(prof[:, 0], thetas):
        f.fail(f"estimate: profile thetas {prof[:, 0].tolist()} are not linspace{grid}")
        return
    if not np.all(np.isfinite(prof[:, 1:])):
        f.fail("estimate: non-finite score or standard error in profile.csv")
    best = int(np.argmin(prof[:, 1]))
    lo, hi = thetas[max(best - 1, 0)], thetas[min(best + 1, thetas.size - 1)]
    if not lo <= theta_hat <= hi:
        f.fail(f"estimate: theta_hat {theta_hat!r} outside the bracket [{lo:g}, {hi:g}] "
               f"around the grid argmin")
    hit = 0 < best < thetas.size - 1 and abs(thetas[best] - theta_true) <= (
        THETA_REL_TOL * theta_true)
    edge = min(theta_hat - lo, hi - theta_hat) <= 1.0
    f.note(f"estimate: grid argmin {thetas[best]:g} "
           f"({'an interior point within' if hit else 'not an interior point within'} "
           f"{THETA_REL_TOL:.0%} of {theta_true:g}); theta_hat {theta_hat:.1f} "
           f"{'at an edge of' if edge else 'inside'} its bracket [{lo:g}, {hi:g}]")


# -- simulate ----------------------------------------------------------------

def _exact_zero_tokens(text: str, n_days: int) -> int:
    """Value cells written as the bare token `0` (replicate 0's index excluded)."""
    return len(re.findall(r",0(?=[,\n])", text)) - n_days


def check_simulate(ensemble, fit_dir: str, n_days: int, m: int, f: Findings) -> None:
    """ensemble is read_ensemble's result for the simulate stage's ensemble.csv."""
    ens, replicate, text = ensemble
    if ens is None:
        f.fail(f"simulate: {replicate.size} ensemble rows, expected {n_days} x {m}")
        return
    if not np.array_equal(replicate, np.tile(np.arange(m), n_days)):
        f.fail("simulate: replicate column is not 0..m-1 for every day")
    if not np.all(np.isfinite(ens)) or np.any(ens < 0.0):
        f.fail("simulate: ensemble holds non-finite or negative values")
        return
    dry = ens == 0.0
    if _exact_zero_tokens(text, n_days) != int(dry.sum()):
        f.fail("simulate: a dry cell is not written as the exact token 0")
    n = ens.shape[2]
    p = read_marginals(os.path.join(fit_dir, "marginals.csv"), n)[..., 0]  # (days, n)
    gap = dry.mean(axis=1) - (1.0 - p)                                       # (days, n)
    se = gap.std(axis=0, ddof=1) / np.sqrt(n_days)
    bad = np.abs(gap.mean(axis=0)) > DRY_SIGMAS * se + 1e-12
    if np.any(bad):
        f.fail(f"simulate: dry share off the marginal 1 - p at locations "
               f"{np.flatnonzero(bad).tolist()}")


# -- diagnose ----------------------------------------------------------------

def _day_chunks(n_days: int, cells_per_day: int, budget: int = 4_000_000):
    step = max(1, budget // max(cells_per_day, 1))
    return [slice(s, min(s + step, n_days)) for s in range(0, n_days, step)]


def recompute_scores(ens: np.ndarray, obs: np.ndarray, dist: np.ndarray,
                     beta: float) -> dict:
    """CRPS, energy score, median bias and variogram score from their formulas.

    ens is (days, m, n), obs (days, n). CRPS and energy score use the
    unbiased pairwise divisor m(m - 1); the variogram score weights each
    ordered pair of distinct locations by 1 / distance with p = 1.
    """
    t, m, n = ens.shape
    xs = np.sort(ens, axis=1)
    coef = 2.0 * np.arange(m) - m + 1.0
    crps = (np.abs(ens - obs[:, None, :]).mean(axis=1)
            - np.einsum("j,tjn->tn", coef, xs) / (m * (m - 1)))

    med = np.median(ens, axis=1)
    bias = obs - med

    ji, ki = np.triu_indices(m, 1)
    energy = np.empty(t)
    vario = np.zeros(t)
    for sl in _day_chunks(t, ji.size * n):
        e = ens[sl]
        to_obs = np.sqrt(((e - obs[sl, None, :]) ** 2).sum(axis=2)) ** beta
        pairs = np.sqrt(((e[:, ji, :] - e[:, ki, :]) ** 2).sum(axis=2)) ** beta
        energy[sl] = 2.0 * to_obs.mean(axis=1) - 2.0 * pairs.sum(axis=1) / (m * (m - 1))
    for k in range(n - 1):
        sim_gap = np.abs(ens[:, :, k:k + 1] - ens[:, :, k + 1:]).mean(axis=1)
        obs_gap = np.abs(obs[:, k:k + 1] - obs[:, k + 1:])
        vario += ((obs_gap - sim_gap) ** 2) @ (2.0 / dist[k, k + 1:])
    return {
        "crps_mean": float(crps.mean()),
        "energy_score_mean": float(energy.mean()),
        "rmsb": float(np.sqrt((bias ** 2).mean())),
        "mab": float(np.abs(bias).mean()),
        "variogram_score_day_sum": float(vario.sum()),
    }


def check_diagnose(ensemble, inputs: str, diag_dir: str, n_days: int, blend: float,
                   topo_scale: float, beta: float, f: Findings) -> None:
    ens = ensemble[0]
    if ens is None:
        f.fail("diagnose: cannot recompute, the ensemble has the wrong row count")
        return
    obs = read_rain(os.path.join(inputs, "rainfall.csv"))
    dist = blended_distance(read_locations(os.path.join(inputs, "locations.csv")),
                            blend, topo_scale)
    with open(os.path.join(diag_dir, "diagnostics.json"), encoding="utf-8") as fh:
        reported = json.load(fh)
    for key, want in recompute_scores(ens, obs, dist, beta).items():
        got = reported.get(key)
        if got is None or not _rel_err(float(got), want) <= REL_TOL:
            f.fail(f"diagnose: {key} {got!r} differs from the recomputed {want!r}")
    counts = np.loadtxt(os.path.join(diag_dir, "rank_hist.csv"), delimiter=",",
                        skiprows=1, usecols=1, ndmin=1)
    if int(counts.sum()) != n_days * obs.shape[1]:
        f.fail(f"diagnose: rank histogram counts sum to {int(counts.sum())}, "
               f"expected {n_days * obs.shape[1]}")
    if not reported.get("auc"):
        f.fail("diagnose: no AUC reported")
    for q, auc in reported.get("auc", {}).items():
        if auc is None or not 0.0 <= float(auc) <= 1.0:
            f.fail(f"diagnose: AUC at q={q} is {auc!r}, outside [0, 1]")
