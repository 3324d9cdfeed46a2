"""Minimum energy-score estimation of the spatial lengthscale.

Maximum likelihood is unavailable here: the censored model's likelihood
integrates the latent density over every dry coordinate, and the latent
marginals below the censoring point are unknown. Inference therefore
compares simulations against observations under a strictly proper score,
which needs nothing beyond the ability to sample the censored model.

The objective simulates m censored latent draws per day from the candidate
covariance, compares them with the Gaussian-scale transform of the observed
panel through the unbiased energy-score estimator, and sums over days.
Common random numbers make the objective a deterministic function of theta
for a fixed seed: the per-day standard normals depend only on (seed, day),
and are re-correlated through each candidate's Cholesky factor, so profiles
are smooth and grid evaluations directly comparable.

Evaluation is batched. A list of candidate thetas is scored together: the
thetas are split into groups whose Cholesky factors (n x n each) fit one
fixed element budget, the days into chunks whose (days, m, n) normals fit
the same budget. Each chunk's normals are drawn once and reused for every
theta of the group; the chunk is then re-correlated, censored and scored by
one stacked energy-score kernel. Working memory is therefore bounded by a
few budget-sized arrays whatever the number of locations or days, and the
scores do not depend on the budget beyond floating-point rounding. A group's
factors are released before the next group's are built.

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

from .copula import censor, censor_thresholds, obs_to_gaussian, substream
from .marginals import MarginalField
from .panel import write_csv
from .spatial import DistanceMatrix, MaternParams, build_covariance

__all__ = [
    "ScoreConfig",
    "ThetaSearchSpec",
    "ProfilePoint",
    "EstimateResult",
    "energy_score_unbiased",
    "energy_scores",
    "day_chunks",
    "sr_objective",
    "estimate_theta",
    "subsample_indices",
    "write_profile",
    "write_summary",
]

# Substream path tags, keeping draw streams disjoint from subsampling streams.
_DAY_DRAW = 0
_SEL_DAYS = 1
_SEL_LOCS = 2

# Float64 elements allowed in one working array (512 KiB): bounds a day
# chunk's (days, m, n) normals and a theta group's n x n factors alike. Small
# enough that a chunk's pair differences stay in a core's cache, large enough
# to amortise numpy's per-call cost over tens of days at n = 20.
_ELEMENT_BUDGET = 1 << 16


@dataclass(frozen=True)
class ScoreConfig:
    """Settings for one objective evaluation.

    day_subsample / location_subsample are either "all" or a count drawn
    uniformly without replacement (selection depends only on the seed, so
    every candidate theta sees the same subset).
    """

    beta: float = 0.5
    m: int = 30
    day_subsample: object = "all"
    location_subsample: object = "all"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.beta < 2.0):
            raise ValueError("beta must lie in (0, 2)")
        if self.m < 2:
            raise ValueError("the unbiased pairwise term needs m >= 2")
        for name in ("day_subsample", "location_subsample"):
            v = getattr(self, name)
            if v != "all" and (not isinstance(v, (int, np.integer)) or v < 1):
                raise ValueError(f"{name} must be 'all' or a positive count")


@dataclass(frozen=True)
class ThetaSearchSpec:
    """Search interval and grid size on theta."""

    lower: float
    upper: float
    grid_size: int = 13

    def __post_init__(self):
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


def energy_scores(samples: np.ndarray, obs: np.ndarray, beta: float) -> np.ndarray:
    """Unbiased energy score of each block in a stack.

    samples is (k, m, n) with m >= 2, obs (k, n); returns the k scores
    (2/m) sum_j ||x_j - y||^beta minus the mean of ||x_j - x_k||^beta over
    the m(m-1) ordered pairs. Pair distances come from exact differences,
    pairing each replicate with the one `shift` places later, so rows that
    tie exactly (censored coordinates) are exactly 0 apart.
    """
    k, m, n = samples.shape
    if m < 2:
        raise ValueError("need m >= 2 samples")
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


def energy_score_unbiased(samples: np.ndarray, obs: np.ndarray, beta: float = 0.5) -> float:
    """Unbiased sample estimate of the energy score of one (m, n) block.

    (2/m) sum_j ||x_j - y||^beta minus the mean of ||x_j - x_k||^beta over
    the m(m-1) ordered pairs. Nonnegative for beta <= 1 because ||.||^beta
    is then itself a metric.
    """
    samples = np.asarray(samples, dtype=float)
    obs = np.asarray(obs, dtype=float).reshape(-1)
    if samples.ndim != 2:
        raise ValueError("samples must be an (m, n) array")
    if samples.shape[1] != obs.size:
        raise ValueError(f"sample dimension {samples.shape[1]} does not match "
                         f"observation {obs.size}")
    return float(energy_scores(samples[None], obs[None], beta)[0])


def day_chunks(n_days: int, cells_per_day: int) -> list:
    """Consecutive day slices, each holding at most the element budget of cells."""
    step = max(1, _ELEMENT_BUDGET // max(cells_per_day, 1))
    return [slice(s, min(s + step, n_days)) for s in range(0, n_days, step)]


def subsample_indices(seed: int, tag: int, n: int, k) -> np.ndarray:
    """Sorted uniform subset of size k out of n (or everything for "all")."""
    if k == "all" or k >= n:
        return np.arange(n)
    rng = substream(seed, tag)
    return np.sort(rng.choice(n, size=int(k), replace=False))


def _group_terms(thetas, distance: DistanceMatrix, nu: float, cfg: ScoreConfig,
                 days: np.ndarray, obs: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Per-day scores of thetas whose factors fit the budget together.

    obs is (days, n), thr (days, 1, n). Each day chunk's normals are drawn
    once and shared by every theta of the group; everything built here is
    released on return, before the next group's factors exist.
    """
    m, n = cfg.m, distance.n
    lowers_t = [build_covariance(distance, MaternParams(theta=theta, nu=nu)).factor.lower.T
                for theta in thetas]
    scores = np.empty((len(thetas), days.size))
    for sl in day_chunks(days.size, m * n):
        z = np.stack([substream(cfg.seed, _DAY_DRAW, int(day)).standard_normal((m, n))
                      for day in days[sl]])
        for k, lower_t in enumerate(lowers_t):
            sims = censor(z @ lower_t, thr[sl])
            scores[k, sl] = energy_scores(sims, obs[sl], cfg.beta)
    return scores


def _objective_terms(thetas, obs_gauss, thresholds, distance: DistanceMatrix,
                     cfg: ScoreConfig, nu: float, days, locations) -> np.ndarray:
    """Per-day unbiased scores, (len(thetas), days); days/locations override subsampling."""
    n_days_total = obs_gauss.shape[1]
    if days is None:
        days = subsample_indices(cfg.seed, _SEL_DAYS, n_days_total, cfg.day_subsample)
    else:
        days = np.sort(np.asarray(days, dtype=int))
    if locations is None:
        locations = subsample_indices(cfg.seed, _SEL_LOCS, obs_gauss.shape[0],
                                      cfg.location_subsample)
    else:
        locations = np.sort(np.asarray(locations, dtype=int))

    sub = distance.subset(locations)
    obs = obs_gauss[np.ix_(locations, days)].T
    thr = thresholds[np.ix_(locations, days)].T[:, None, :]
    group = max(1, _ELEMENT_BUDGET // (sub.n * sub.n))
    return np.vstack([_group_terms(thetas[g:g + group], sub, nu, cfg, days, obs, thr)
                      for g in range(0, len(thetas), group)])


def sr_objective(theta: float, panel_values: np.ndarray, field: MarginalField,
                 distance: DistanceMatrix, cfg: ScoreConfig, nu: float = 3.5,
                 days=None, locations=None) -> float:
    """Sum of per-day unbiased energy scores of censored simulations at theta.

    Deterministic given cfg.seed: repeated calls agree bitwise, and the same
    latent normals are reused across theta values (common random numbers).
    Explicit ``days`` / ``locations`` index arrays override the seeded
    subsampling; selected locations are canonicalized to ascending order, so
    any permutation of the same set yields the identical value.
    """
    obs_gauss = obs_to_gaussian(panel_values, field)
    thresholds = censor_thresholds(field)
    scores = _objective_terms([theta], obs_gauss, thresholds, distance, cfg, nu,
                              days, locations)
    return float(scores.sum())


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
                   search: ThetaSearchSpec, nu: float = 3.5) -> EstimateResult:
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

    all_terms = _objective_terms(grid, obs_gauss, thresholds, distance, cfg, nu,
                                 None, None)

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
              ([repr(float(v)) for v in (pt.theta, pt.score, pt.mc_stderr)]
               for pt in profile))


def write_summary(path, result: EstimateResult, cfg: ScoreConfig,
                  search: ThetaSearchSpec) -> None:
    """Estimation summary as deterministic JSON.

    Wall-clock time lives on the result object and in the CLI log only;
    keeping it out of the file makes reruns byte-identical.
    """
    import json

    payload = {
        "theta_hat": result.theta_hat,
        "theta_lower": search.lower,
        "theta_upper": search.upper,
        "grid_size": search.grid_size,
        "beta": cfg.beta,
        "m": cfg.m,
        "day_subsample": cfg.day_subsample,
        "location_subsample": cfg.location_subsample,
        "seed": cfg.seed,
        "boundary_minimizer": result.boundary,
        "grid_argmin": result.grid_argmin,
        "refine_bracket": list(result.refine_bracket),
        "n_evaluations": result.n_evaluations,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
