"""Latent Gaussian copula: sampling, censoring, and joint rainfall forecasts.

The latent field is a zero-mean Gaussian vector with the Matérn correlation
matrix; a coordinate whose latent value falls at or below its censoring
threshold d = Phi^{-1}(1 - p) is recorded as the threshold (rain: exactly
zero). Degenerate marginals are encoded with infinite sentinels: p = 0
(always dry) maps to d = +inf so the coordinate is always censored, p = 1
(never censored) to d = -inf.

Randomness is organized as counter-based substreams: `substream(seed, *path)`
derives an independent generator from a master seed and an integer path, so
outputs are independent of evaluation order and thread count. Forecast
sampling pushes the latent Gaussian's uniform directly through the mixture
quantile, preserving the copula coupling exactly and emitting bit-exact 0.0
for dry outcomes.

day_normals draws the per-day common random numbers, day d's (m, n) normals
from substream(seed, *path, d), for joint_forecast and the theta objective
alike: callers walk a run of days in budget-sized chunks
(numerics.day_chunks), and no draw depends on the chunking. The draws fill
one array in place.

The ensemble file goes out and comes back in the same day chunks:
write_ensemble takes the blocks as they are drawn, and read_ensemble is a
generator that yields each day chunk as soon as its rows are parsed, so a
reader of a long forecast holds one chunk of it.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import special as _sp

from .marginals import MarginalField, mixture_cdf, mixture_quantile
from .numerics import day_chunks
from .panel import IngestError, float_text, read_long_csv, write_csv
from .spatial import CovarianceMatrix

__all__ = [
    "SUBSTREAM_TAGS",
    "substream",
    "day_normals",
    "censor_thresholds",
    "censor",
    "obs_to_gaussian",
    "joint_forecast",
    "write_ensemble",
    "read_ensemble",
]

CDF_HI = 1.0 - 1e-12

# The first path element of every substream the package draws from: one tag per
# stream, all distinct, so no two streams share a draw.
SUBSTREAM_TAGS = {
    "theta_objective": 0,  # estimation's per-day common random numbers
    "synth_locations": 10,
    "synth_days": 11,
    "synth_features": 12,
    "rank_ties": 20,  # diagnose's rank-histogram tie-breaks
    "simulate": 21,
}


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based generator for a (seed, path) pair."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def day_normals(days, m: int, n: int, seed: int, *path: int) -> np.ndarray:
    """(len(days), m, n) standard normals, day d's from substream(seed, *path, d).

    Each day's draws are written straight into its slot of the one array."""
    out = np.empty((len(days), m, n))
    for slot, day in zip(out, days):
        substream(seed, *path, day).standard_normal(out=slot)
    return out


def censor_thresholds(field: MarginalField) -> np.ndarray:
    """Per-cell censoring thresholds Phi^{-1}(1 - p) with infinite sentinels.

    Finite wherever 1 - p is strictly inside (0, 1); ndtri gives +inf where
    p = 0 and -inf where p = 1, keeping the elementwise-max censoring rule
    valid.
    """
    return _sp.ndtri(1.0 - field.p)


def censor(draws: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Elementwise max of latent values and thresholds (ties censor)."""
    draws = np.asarray(draws, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    if draws.shape[-1] != thresholds.shape[-1]:
        raise ValueError("draw and threshold dimensions do not match")
    return np.maximum(draws, thresholds)


def obs_to_gaussian(values: np.ndarray, field: MarginalField) -> np.ndarray:
    """Map observed rainfall onto the latent Gaussian scale cellwise.

    x = Phi^{-1}(F(y)); dry cells land exactly on the censoring threshold
    since both are computed as Phi^{-1}(1 - p). A CDF that rounds to 1 in
    floating point (huge observations) is clamped to 1 - 1e-12 with a
    warning.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != field.p.shape:
        raise ValueError("panel shape does not match the marginal field")
    u = mixture_cdf(field.p, field.mu, field.phi, values)
    hi = u >= 1.0
    if np.any(hi):
        warnings.warn(
            f"{int(hi.sum())} cell(s) reached CDF 1 in floating point; "
            f"clamped to {CDF_HI}",
            UserWarning,
        )
        u = np.where(hi, CDF_HI, u)
    with np.errstate(divide="ignore"):
        return _sp.ndtri(u)


def joint_forecast(cov: CovarianceMatrix, field: MarginalField, days, m: int, seed: int,
                   *path: int) -> np.ndarray:
    """Sample joint rainfall for a run of days: a (len(days), m, n) array.

    Day d's (m, n) normals come from day_normals, so from substream(seed, *path, d),
    whatever other days the call holds. Each latent draw x* = L z goes through
    u = Phi(x*) and its day's mixture quantile: u <= 1 - p gives bit-exact 0.0
    rainfall, larger u the gamma quantile at (u - (1 - p)) / p. Marginals are
    exactly the cellwise mixture laws; dependence is inherited from the covariance.
    """
    days = np.asarray(days, dtype=int)
    if m < 1:
        raise ValueError("need at least one draw")
    if days.ndim != 1 or days.size == 0 or days.min() < 0 or days.max() >= field.n_days:
        raise ValueError(f"need a non-empty run of days in [0, {field.n_days})")
    if cov.n != field.n_locations:
        raise ValueError("covariance size does not match the marginal field")
    u = _sp.ndtr(day_normals(days, m, cov.n, seed, *path) @ cov.factor.lower.T)
    return mixture_quantile(*(a[days, None, :] for a in (field.p, field.mu, field.phi)), u)


def write_ensemble(path, day_labels, location_ids, blocks) -> None:
    """Write ensemble CSV: day,replicate,loc_<id>,... with exact 0 tokens when dry.

    blocks, (m, n) arrays aligned with day_labels, may come from a generator.
    """
    write_csv(path, ["day", "replicate", *(f"loc_{i}" for i in location_ids)],
              ([label, str(j), *float_text(row, rain=True)]
               for label, block in zip(day_labels, blocks)
               for j, row in enumerate(np.asarray(block, dtype=float).tolist())))


def read_ensemble(path, panel):
    """Yield the days of an ensemble CSV a numerics.day_chunks chunk at a time.

    The file is keyed (day, replicate): the panel's days in order, each with m
    rows, replicate 0, ..., m - 1, m the first day's row count. Each chunk
    comes as (days, samples), a slice of days and its (k, m, n) samples, in
    day order as soon as its rows are parsed, up to the first row out of
    order; the errors of panel.read_long_csv come, in its order, once the
    file is read.
    """
    def check_header(header):
        if header != ["day", "replicate", *(f"loc_{i}" for i in panel.location_ids)]:
            raise IngestError(f"{path}: ensemble header does not match the locations file")

    chunks = None
    for values, first, m in read_long_csv(path, check_header, panel.day_labels,
                                          nonnegative=True):
        chunks = chunks or day_chunks(panel.n_days, m * values.shape[1])
        step, last = chunks[0].stop * m, first + len(values)  # rows a chunk, but the last
        cuts = [first, *range((first // step + 1) * step, last, step), last]
        for lo, hi in zip(cuts, cuts[1:]):  # the block's rows, a chunk at a time
            c, at = divmod(lo, step)
            if at == 0:
                buf = np.empty(((chunks[c].stop - chunks[c].start) * m, values.shape[1]))
            buf[at:at + hi - lo] = values[lo - first:hi - first]
            if at + hi - lo == len(buf):
                yield chunks[c], buf.reshape(-1, m, buf.shape[1])
        del values  # before the next block is read
