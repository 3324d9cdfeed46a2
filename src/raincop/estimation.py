"""Minimum energy-score estimation of the spatial lengthscale.

Maximum likelihood is unavailable here: the censored model's likelihood
integrates the latent density over every dry coordinate, and the latent
marginals below the censoring point are unknown. Inference therefore
compares simulations against observations under a strictly proper score,
which needs nothing beyond the ability to sample the censored model.

The objective simulates m censored latent draws per day from the candidate
covariance, compares them with the Gaussian-scale transform of the observed
panel through the unbiased energy-score estimator, and sums over every day
and location it is given: to score a subset of days or locations, slice the
panel, the field and the distance matrix before the call. Common random
numbers make the objective a deterministic function of theta for a fixed
seed: the per-day standard normals (copula.day_normals) depend only on
(seed, day), and are re-correlated through each candidate's Cholesky factor,
so profiles are smooth and grid evaluations directly comparable.

Evaluation is batched. A list of candidate thetas is scored together: the
thetas are split into groups whose Cholesky factors (n x n each) fit the
element budget of numerics.day_chunks, the days into chunks whose (days, m,
n) normals fit the same budget. Each chunk's normals are drawn once and
reused for every theta of the group; the chunk is then re-correlated,
censored and scored by energy_score_unbiased, the one energy-score kernel,
which `diagnose` calls on each day chunk of an ensemble. Working memory is
therefore bounded by a few budget-sized arrays whatever the number of
locations or days, and the scores do not depend on the budget beyond
floating-point rounding. A group's factors are released before the next group's are built.

The search scores one grid of thetas in one batched call on the same days.
theta_hat is the vertex of the parabola through the grid minimum and its two
neighbours: no further evaluation, and within half a grid step of the grid
minimizer (on an edge of the grid, the minimizer itself). Every scored theta
is in the profile; the summary records the grid minimizer and its bracket.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .copula import SUBSTREAM_TAGS, censor, censor_thresholds, day_normals, obs_to_gaussian
from .marginals import MarginalField
from .numerics import day_chunks, ensemble_arrays
from .panel import float_text, write_csv, write_json
from .spatial import DEFAULT_NU, DistanceMatrix, MaternParams, build_covariance

__all__ = [
    "ScoreConfig",
    "ThetaSearchSpec",
    "ProfilePoint",
    "EstimateResult",
    "energy_score_unbiased",
    "estimate_theta",
    "write_profile",
    "write_summary",
]


@dataclass(frozen=True)
class ScoreConfig:
    """Settings for one objective evaluation.

    beta is the energy score's exponent, m the number of draws per day and
    seed that of the per-day draws. The objective scores every day and
    location of the arrays it is given; a subset is chosen by slicing them.
    """

    beta: float = 0.5
    m: int = 30
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.beta < 2.0):
            raise ValueError("beta must lie in (0, 2)")
        if self.m < 2:
            raise ValueError("the unbiased pairwise term needs m >= 2")


@dataclass(frozen=True)
class ThetaSearchSpec:
    """Search interval and grid size on theta."""

    lower: float
    upper: float
    grid_size: int = 13

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError(f"theta bounds must be finite, got [{self.lower}, {self.upper}]")
        if not (0.0 < self.lower < self.upper):
            raise ValueError("need 0 < lower < upper")
        if self.grid_size < 3:
            raise ValueError("grid needs at least 3 points")


@dataclass(frozen=True)
class ProfilePoint:
    theta: float
    score: float
    mc_stderr: float


@dataclass
class EstimateResult:
    """theta_hat is the parabolic vertex at grid_argmin, inside refine_bracket."""

    theta_hat: float
    profile: list
    boundary: bool
    grid_argmin: float
    refine_bracket: tuple
    n_evaluations: int
    wall_clock_s: float


def energy_score_unbiased(samples: np.ndarray, obs: np.ndarray, beta: float) -> np.ndarray:
    """Unbiased energy score of each block in a stack, all at once.

    samples is (k, m, n) with m >= 2, obs (k, n); returns the k scores
    (2/m) sum_j ||x_j - y||^beta minus the mean of ||x_j - x_k||^beta over
    the m(m-1) ordered pairs, nonnegative for beta <= 1 (||.||^beta is then
    a metric). Pair distances come from exact differences, pairing each
    replicate with the one `shift` places later, so rows that tie exactly
    (censored coordinates) are exactly 0 apart. Its temporaries are the size
    of the stack: callers hand over one numerics.day_chunks chunk at a time.
    """
    samples, obs = ensemble_arrays(samples, obs)
    k, m, n = samples.shape
    to_obs = np.sqrt(((samples - obs[:, None, :]) ** 2).sum(axis=2)) ** beta
    sq_pair = np.empty((k, m * (m - 1) // 2))
    diff = np.empty((k, m - 1, n))
    pos = 0
    for shift in range(1, m):
        d = diff[:, :m - shift]
        np.subtract(samples[:, shift:], samples[:, :m - shift], out=d)
        np.einsum("kjn,kjn->kj", d, d, out=sq_pair[:, pos:pos + m - shift])
        pos += m - shift
    pair = (np.sqrt(sq_pair) ** beta).sum(axis=1)
    return 2.0 * to_obs.mean(axis=1) - 2.0 * pair / (m * (m - 1))


def _group_terms(thetas, distance: DistanceMatrix, nu: float, cfg: ScoreConfig,
                 obs: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Per-day scores of thetas whose factors fit the budget together.

    obs is (days, n), thr (days, 1, n). Each day chunk's normals are drawn
    once and shared by every theta of the group; everything built here is
    released on return, before the next group's factors exist.
    """
    m, n = cfg.m, distance.n
    lowers_t = [build_covariance(distance, MaternParams(theta=theta, nu=nu)).factor.lower.T
                for theta in thetas]
    scores = np.empty((len(thetas), len(obs)))
    for sl in day_chunks(len(obs), m * n):
        z = day_normals(range(len(obs))[sl], m, n, cfg.seed, SUBSTREAM_TAGS["theta_objective"])
        for k, lower_t in enumerate(lowers_t):
            sims = censor(z @ lower_t, thr[sl])
            scores[k, sl] = energy_score_unbiased(sims, obs[sl], cfg.beta)
    return scores


def _objective_terms(thetas, obs_gauss, thresholds, distance: DistanceMatrix,
                     cfg: ScoreConfig, nu: float) -> np.ndarray:
    """Per-day unbiased scores, (len(thetas), days), under common random numbers."""
    thr = thresholds[:, None, :]
    return np.vstack([_group_terms(thetas[g], distance, nu, cfg, obs_gauss, thr)
                      for g in day_chunks(len(thetas), distance.n * distance.n)])


def _grid_vertex(grid: np.ndarray, scores: np.ndarray) -> tuple:
    """(theta_hat, argmin) of a grid profile.

    theta_hat is the vertex of the parabola through the minimum and its two
    neighbours, theta_b + (h/2)(f- - f+)/(f- - 2 f_b + f+), or on an edge of
    the grid the minimizer itself.
    """
    best = int(np.argmin(scores))
    if best in (0, len(grid) - 1):
        return float(grid[best]), best
    # argmin takes the first minimum, so down > 0 and up >= 0: the ratio lies
    # in [-1, 1] in floating point too, keeping the vertex within h/2.
    down = scores[best - 1] - scores[best]
    up = scores[best + 1] - scores[best]
    half_step = (grid[best + 1] - grid[best - 1]) / 4.0
    return float(grid[best] + half_step * (down - up) / (down + up)), best


def estimate_theta(panel_values: np.ndarray, field: MarginalField,
                   distance: DistanceMatrix, cfg: ScoreConfig,
                   search: ThetaSearchSpec, nu: float = DEFAULT_NU) -> EstimateResult:
    """Grid scan of the lengthscale, refined by the parabolic vertex.

    The emitted profile holds the grid evaluations (one ProfilePoint per
    grid theta, with the across-days Monte Carlo standard error of the
    summed score); these are the only evaluations. theta_hat is the vertex
    of the parabola through the grid minimum and its two neighbours. A
    minimizer on a search boundary is flagged and warned about, and is then
    theta_hat itself. The result records the grid minimizer and its bracket.
    """
    t0 = time.perf_counter()
    obs_gauss = obs_to_gaussian(panel_values, field)
    thresholds = censor_thresholds(field)
    grid = np.linspace(search.lower, search.upper, search.grid_size)

    all_terms = _objective_terms(grid, obs_gauss, thresholds, distance, cfg, nu)

    profile = []
    for theta, scores in zip(grid, all_terms):
        stderr = float(np.std(scores, ddof=1) * np.sqrt(scores.size)) if scores.size > 1 else 0.0
        profile.append(ProfilePoint(theta=float(theta), score=float(scores.sum()),
                                    mc_stderr=stderr))

    theta_hat, best = _grid_vertex(grid, np.array([pt.score for pt in profile]))
    boundary = best in (0, len(grid) - 1)
    if boundary:
        warnings.warn(
            f"grid minimizer {grid[best]:g} lies on the search boundary "
            f"[{search.lower:g}, {search.upper:g}]",
            UserWarning,
        )
    return EstimateResult(
        theta_hat=theta_hat,
        profile=profile,
        boundary=boundary,
        grid_argmin=float(grid[best]),
        refine_bracket=(float(grid[max(best - 1, 0)]),
                        float(grid[min(best + 1, len(grid) - 1)])),
        n_evaluations=len(profile),
        wall_clock_s=time.perf_counter() - t0,
    )


def write_profile(path, profile) -> None:
    """Profile CSV: theta,score,mc_stderr."""
    write_csv(path, ["theta", "score", "mc_stderr"],
              (float_text((pt.theta, pt.score, pt.mc_stderr)) for pt in profile))


def write_summary(path, result: EstimateResult, cfg: ScoreConfig,
                  search: ThetaSearchSpec) -> None:
    """Estimation summary as deterministic JSON.

    Wall-clock time lives on the result object and in the CLI log only;
    keeping it out of the file makes reruns byte-identical.
    """
    payload = {
        "theta_hat": result.theta_hat,
        "theta_lower": search.lower,
        "theta_upper": search.upper,
        "grid_size": search.grid_size,
        "beta": cfg.beta,
        "m": cfg.m,
        "seed": cfg.seed,
        "boundary_minimizer": result.boundary,
        "grid_argmin": result.grid_argmin,
        "refine_bracket": list(result.refine_bracket),
        "n_evaluations": result.n_evaluations,
    }
    write_json(path, payload)
