"""Forecast-verification diagnostics for ensemble rainfall forecasts.

Calibration: exceedance ROC/AUC from the marginal field, rank histograms
with randomized tie-breaking (ties are pervasive with exact zeros), and
pooled exceedance-frequency (ECDF) curves. Spatial coherence: correlation
of every location with the one nearest the mean (lat, lon), and the
variogram score of order 1 with inverse-distance weights. Accuracy:
sample CRPS (the univariate energy score, with the unbiased pairwise
divisor so values are comparable across ensemble sizes) and median-forecast
bias summaries.

Each ensemble score is one array kernel over a run of a forecast's days:
(days, m, n) samples against (days, n) observations (`crps_sample`,
`variogram_score`, `rank_histogram`, `ecdf_curve`, `rmsb_mab`). Each scores
the array it is given, so its temporaries are the size of that run: the
caller bounds them by handing over one `numerics.day_chunks` chunk at a time,
as `diagnose` does with the chunks `copula.read_ensemble` yields. Only
`variogram_score` walks its run again, in day chunks and row blocks under the
budget of its n x n accumulators. One day or one cell is scored as a stack
of one. A run's per-day and per-cell scores are those days' scores in the
whole forecast. The pooled scores take the running totals of earlier runs
(`counts`, `sums`, `moments`), so a forecast scored a day chunk at a time,
in day order, gives the bits of the whole; the pooled correlation merges
centred co-moments and agrees with the two-pass value to rounding. All
diagnostics are pure over their inputs, but for the running totals they add
to, with fixed iteration order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .marginals import MarginalField, mixture_cdf
from .numerics import day_chunks, ensemble_arrays
from .spatial import DistanceMatrix, LocationTable

__all__ = [
    "RocCurve",
    "roc_auc",
    "rank_histogram",
    "ecdf_curve",
    "CoMoments",
    "cross_correlation",
    "crps_sample",
    "variogram_score",
    "rmsb_mab",
]


@dataclass(frozen=True)
class RocCurve:
    """Exceedance ROC for one rainfall level q and its trapezoidal AUC.

    auc is NaN when the panel is degenerate (no events or all events).
    """

    q: float
    taus: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_auc(field: MarginalField, panel_values: np.ndarray, q: float, tau_grid) -> RocCurve:
    """Exceedance detection skill pooled over all cells.

    Each (location, day) cell is an independent trial: the event is
    observed rainfall above q, the forecast signal fires when the
    forecast exceedance probability 1 - F(q) is above the threshold tau
    (all cells signal at tau = 0, so the curve closes at (1, 1)). The
    curve sweeps tau from 1 down to 0 and AUC integrates it by trapezoid.
    The probabilities fill one field-sized array, a day chunk at a time.
    """
    if q < 0.0:
        raise ValueError("exceedance level q must be nonnegative")
    taus = np.sort(np.asarray(tau_grid, dtype=float))[::-1]

    prob = np.empty(field.p.shape)
    for sl in day_chunks(field.n_days, field.n_locations):
        prob[sl] = 1.0 - mixture_cdf(field.p[sl], field.mu[sl], field.phi[sl], q)
    events = np.asarray(panel_values, dtype=float) > q
    p_event = np.sort(prob[events])
    p_quiet = np.sort(prob[~events])
    n_event, n_quiet = p_event.size, p_quiet.size

    # signal iff prob > tau (tau > 0); everything signals at tau = 0
    tpr = np.empty(taus.size)
    fpr = np.empty(taus.size)
    pos_tau = taus > 0.0
    if n_event:
        tpr[pos_tau] = 1.0 - np.searchsorted(p_event, taus[pos_tau], side="right") / n_event
        tpr[~pos_tau] = 1.0
    else:
        tpr[:] = np.nan
    if n_quiet:
        fpr[pos_tau] = 1.0 - np.searchsorted(p_quiet, taus[pos_tau], side="right") / n_quiet
        fpr[~pos_tau] = 1.0
    else:
        fpr[:] = np.nan

    if n_event == 0 or n_quiet == 0:
        auc = float("nan")
    else:
        order = np.argsort(fpr, kind="stable")
        fx, ty = fpr[order], tpr[order]
        auc = float(np.sum(np.diff(fx) * 0.5 * (ty[1:] + ty[:-1])))
    return RocCurve(q=float(q), taus=taus, fpr=fpr, tpr=tpr, auc=auc)


def rank_histogram(samples, obs, bins: int, rng: np.random.Generator, counts=None):
    """Histogram of observation ranks within their ensembles, (days, m, n) at once.

    The rank of an observation is the number of members strictly below it,
    plus a uniform random count among tied members (the standard correction;
    exact zeros make ties pervasive). Ranks live in {0, ..., m} and are
    folded into `bins` bins; counts are returned with normalized
    frequencies. Uniform iff the forecasts are calibrated. The tie-break
    counts are drawn day by day, location by location, so a generator gives
    the same ranks however the days are chunked. counts, when given, holds the
    (bins,) integer counts of earlier days and is added to in place.
    """
    samples, obs = ensemble_arrays(samples, obs)
    m = samples.shape[1]
    if bins < 1 or bins > m + 1:
        raise ValueError("bins must lie in [1, m + 1]")
    counts = np.zeros(bins, dtype=int) if counts is None else counts
    y = obs[:, None, :]
    ties = (samples == y).sum(axis=1)
    ranks = (samples < y).sum(axis=1) + rng.integers(0, ties + 1)
    counts += np.bincount(((ranks * bins) // (m + 1)).ravel(), minlength=bins)
    return counts, counts / counts.sum()


def ecdf_curve(samples, obs, levels, counts=None):
    """Pooled exceedance frequencies of the model and the observations.

    For each level x: the fraction of all ensemble values above x and the
    fraction of all observations above x, from (days, m, n) samples and
    (days, n) observations. A calibrated model's curve tracks the observed
    one. counts, when given, holds the (2, len(levels) + 1) integer tallies
    of earlier days, the model's and then the observations' exceedances at
    each level and then their cells, and is added to in place.
    """
    samples, obs = ensemble_arrays(samples, obs)
    levels = np.asarray(levels, dtype=float)
    if np.any(levels < 0.0):
        raise ValueError("levels must be nonnegative")
    counts = np.zeros((2, levels.size + 1), dtype=int) if counts is None else counts
    counts[0, :-1] += (samples.reshape(1, -1) > levels[:, None]).sum(axis=1)
    counts[1, :-1] += (obs.reshape(1, -1) > levels[:, None]).sum(axis=1)
    counts[:, -1] += samples.size, obs.size
    return counts[0, :-1] / counts[0, -1], counts[1, :-1] / counts[1, -1]


class CoMoments:
    """Running centred co-moments of every column with one center column.

    add(values, center_idx) merges a block of rows by the pairwise update of
    Chan, Golub and LeVeque. The first block keeps its own two-pass sums, so
    one block gives the two-pass correlation bit for bit.
    """

    def __init__(self):
        self.rows = 0

    def add(self, values: np.ndarray, center_idx: int) -> None:
        c = values[:, center_idx]
        c_mean = c.mean()
        c_dev = c - c_mean
        c_ss = float(c_dev @ c_dev)
        mean = values.mean(axis=0)
        dev = np.subtract(values, mean)
        co = c_dev @ dev
        ss = np.square(dev, out=dev).sum(axis=0)
        if not self.rows:
            self.rows, self.c_mean, self.c_ss = len(values), c_mean, c_ss
            self.mean, self.co, self.ss = mean, co, ss
            return
        rows = self.rows + len(values)
        share, weight = len(values) / rows, self.rows * len(values) / rows
        delta, c_delta = mean - self.mean, c_mean - self.c_mean
        self.mean += delta * share
        self.c_mean += c_delta * share
        self.ss += ss + delta ** 2 * weight
        self.c_ss += c_ss + c_delta ** 2 * weight
        self.co += co + c_delta * delta * weight
        self.rows = rows

    def correlation(self) -> np.ndarray:
        """Pearson correlation of each column with the center; NaN at zero variance."""
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = self.co / np.sqrt(self.ss * self.c_ss)
        corr[(self.ss == 0.0) | (self.c_ss == 0.0)] = np.nan
        return corr


def cross_correlation(panel_values: np.ndarray, locs: LocationTable,
                      moments: CoMoments | None = None):
    """Pearson correlation across days between a center series and every location.

    panel_values is (n_days, n_locations), or a (days, m, n) ensemble as
    (days * m, n). The center is the location nearest the mean (lat, lon).
    Zero-variance series yield NaN entries. Returns (center_id,
    correlations). The deviations, squared in place once the cross products
    are taken, are one copy of panel_values.
    moments, when given, holds earlier row blocks of the same series: the
    rows are merged into it and the correlations are over every row so far.
    """
    values = np.asarray(panel_values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(locs):
        raise ValueError("panel must be (n_days, n_locations) aligned with locations")
    if moments is None:
        if values.shape[0] < 3:
            raise ValueError("need at least 3 days for a correlation")
        moments = CoMoments()

    mean_lat, mean_lon = locs.lat.mean(), locs.lon.mean()
    center_idx = int(np.argmin((locs.lat - mean_lat) ** 2 + (locs.lon - mean_lon) ** 2))
    moments.add(values, center_idx)
    return locs.ids[center_idx], moments.correlation()


def crps_sample(samples, obs) -> np.ndarray:
    """Sample CRPS of every (day, location) cell, with the unbiased pairwise divisor.

    samples is (days, m, n) with m >= 2, obs (days, n); returns (days, n):
    mean |x_j - y| minus half the mean of |x_j - x_k| over the m(m-1)
    ordered pairs. Nonnegative, smaller is better; a point forecast (all
    members equal) reduces it to the absolute error exactly. The samples are
    transposed to (days, n, m) so every cell's members are contiguous, then
    sorted on that axis for the pair term. Both terms are numpy sums along
    that axis, so a cell's score does not depend on the array it is part
    of: a cell scored alone, as a (1, m, 1) stack, gives the same bits as
    that cell scored inside a larger array.
    """
    samples, obs = ensemble_arrays(samples, obs)
    m = samples.shape[1]
    # sum_{j<k} (x_(k) - x_(j)) = sum_k (2k - m + 1) x_(k) on the sorted sample
    weights = 2.0 * np.arange(m) - m + 1.0
    x = samples.transpose(0, 2, 1).copy()  # C order; sorted in place below
    term_obs = np.abs(x - obs[:, :, None]).mean(axis=2)
    x.sort(axis=2)
    x *= weights
    return term_obs - x.sum(axis=2) / (m * (m - 1))


def variogram_score(samples, obs, distance: DistanceMatrix) -> np.ndarray:
    """Inverse-distance-weighted variogram score of each day's ensemble.

    samples is (days, m, n) with m >= 2, obs (days, n); returns the per-day
    sums of w_kl * (|y_k - y_l| - mean_j |Y_jk - Y_jl|)^2 over all ordered
    location pairs, with w_kl = 1 / D_kl and w_kk = 0: the variogram score of
    order 1. Off-diagonal zero distances get weight 0 with a warning.

    The member mean is summed into one n x n accumulator per day, member by
    member in member order, and never as an (m, n, n) gap tensor. Rows are
    taken in blocks against the columns from the block's first row on, and
    the rest is mirrored: |a - b| == |b - a| exactly, so every sum is the
    same as over the full matrix. A block's rows, once complete, become their
    terms in place: the score allocates the n x n weights, an n x n array per
    day of a chunk and one row block, about 2.4 n^2 doubles at n = 400.
    """
    samples, obs = ensemble_arrays(samples, obs)
    days, _, n = samples.shape
    if distance.n != n:
        raise ValueError("distance matrix does not match the ensemble's locations")
    zero_off = np.count_nonzero(distance.values == 0.0) - n  # the diagonal is all zeros
    if zero_off:
        warnings.warn(f"{zero_off} zero off-diagonal distance(s); their pair weights are "
                      "set to 0", UserWarning)
    w = np.divide(1.0, distance.values, out=np.zeros((n, n)), where=distance.values > 0.0)

    out = np.empty(days)
    for sl in day_chunks(days, n * n):
        out[sl] = [np.sum(t) for t in _variogram_terms(samples[sl], obs[sl], w)]
    return out


def _variogram_terms(y, o, w):
    """The (k, n, n) weighted pair terms of k days, built beside one row block."""
    k, m, n = y.shape
    acc = np.zeros((k, n, n))  # member sums, then each pair's term
    # row blocks under the same element budget as the day chunks
    blocks = day_chunks(n, k * n)
    space = np.empty((k, blocks[0].stop, n))
    for rows in blocks:
        r0, r1 = rows.start, rows.stop
        block = acc[:, r0:r1, r0:]
        buf = space[:, :r1 - r0]
        gap = buf[:, :, r0:]
        for j in range(m):
            np.subtract(y[:, j, r0:r1, None], y[:, j, None, r0:], out=gap)
            np.abs(gap, out=gap)
            block += gap
        acc[:, r1:, r0:r1] = block[:, :, r1 - r0:].transpose(0, 2, 1)
        # rows r0:r1 now hold their full member sums: turn them into terms
        part = acc[:, r0:r1]
        part /= m
        np.subtract(o[:, r0:r1, None], o[:, None, :], out=buf)
        np.abs(buf, out=buf)
        np.subtract(buf, part, out=part)
        np.square(part, out=part)
        part *= w[r0:r1]
    return acc


def rmsb_mab(samples, obs, sums=None):
    """Root mean squared bias and mean absolute bias of the median forecast.

    The ensemble median per cell serves as the point forecast; both metrics
    pool over every (location, day) cell of (days, m, n) samples and (days, n)
    observations. Each day's sums are added to running totals in day order.
    sums, when given, holds the totals of earlier days, the squared and the
    absolute biases and then the cells, and is added to in place.
    """
    samples, obs = ensemble_arrays(samples, obs)
    days, n = obs.shape
    if samples.size == 0:
        raise ValueError("no cells to score")
    sums = np.zeros(3) if sums is None else sums
    running = np.empty((days + 1, 2))  # the totals so far, then each day's two sums
    running[0] = sums[:2]
    diff = obs - np.median(samples, axis=1)
    running[1:, 0] = (diff ** 2).sum(axis=1)
    running[1:, 1] = np.abs(diff).sum(axis=1)
    sums[:2] = np.cumsum(running, axis=0)[-1]
    sums[2] += days * n
    return float(np.sqrt(sums[0] / sums[2])), float(sums[1] / sums[2])
