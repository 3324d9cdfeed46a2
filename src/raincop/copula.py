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
(numerics.day_chunks), and no draw depends on the chunking.
"""

from __future__ import annotations

import warnings
from array import array

import numpy as np
from scipy import special as _sp

from .marginals import MarginalField, mixture_cdf, mixture_quantile
from .panel import IngestError, file_row, float_text, read_csv, write_csv
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
    """(len(days), m, n) standard normals, day d's from substream(seed, *path, d)."""
    return np.stack([substream(seed, *path, day).standard_normal((m, n)) for day in days])


def censor_thresholds(field: MarginalField) -> np.ndarray:
    """Per-cell censoring thresholds Phi^{-1}(1 - p) with infinite sentinels.

    Finite wherever p is strictly inside (0, 1); +inf where p = 0, -inf
    where p = 1, keeping the elementwise-max censoring rule valid.
    """
    p = field.p
    out = np.empty_like(p)
    interior = (p > 0.0) & (p < 1.0)
    out[p == 0.0] = np.inf
    out[p == 1.0] = -np.inf
    out[interior] = _sp.ndtri(1.0 - p[interior])
    return out


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


def read_ensemble(path, location_ids):
    """Read an ensemble CSV back into (day_labels, (days, m, n) samples).

    Every day must hold the same number m of rows, carrying replicate
    0, 1, ..., m - 1 in that order. A ragged day raises IngestError, and so
    do a replicate out of place and a non-numeric, non-finite or negative
    cell, naming the file, row and column.
    """
    expected = ["day", "replicate"] + [f"loc_{i}" for i in location_ids]

    def check_header(header):
        if header != expected:
            raise IngestError(f"{path}: ensemble header does not match the locations file")

    days_seen: dict = {}  # day label -> [its index, its data rows so far], in file order
    day = array("i")  # the day index of each data row, in file order
    misplaced = []  # (day, place, data row, token) of the first replicate out of place

    def check_block(keys, first):
        labels, replicates = keys
        if not len(labels):
            return
        # runs of rows with one label: each day is one run in a contiguous file
        starts = np.flatnonzero(np.append(True, labels[1:] != labels[:-1]))
        sizes = np.diff(starts, append=len(labels))
        run_day, run_place = [], []
        for label, size in zip(labels[starts].tolist(), sizes.tolist()):
            seen = days_seen.setdefault(label, [len(days_seen), 0])
            run_day.append(seen[0])
            run_place.append(seen[1])
            seen[1] += size
        d = np.repeat(run_day, sizes)
        j = np.repeat(np.subtract(run_place, starts), sizes) + np.arange(len(labels))
        day.frombytes(d.astype(np.intc).tobytes())
        bad = np.flatnonzero(replicates != np.arange(j.max() + 1).astype(str)[j])
        if bad.size:
            r = bad[np.lexsort((j[bad], d[bad]))[0]]  # the first day's, then its first place
            if not misplaced or (d[r], j[r]) < misplaced[0][:2]:
                misplaced[:] = [(d[r], j[r], first + r, str(replicates[r]))]

    values = read_csv(path, 2, check_header, nonnegative=True, each_block=check_block)
    sizes = {rows for _, rows in days_seen.values()}
    if len(sizes) > 1:
        raise IngestError(f"{path}: ensemble days hold different numbers of replicates")
    m = sizes.pop() if sizes else 0
    if misplaced:
        _, j, r, token = misplaced[0]
        raise IngestError(f"{path}: row {file_row(path, r)}: replicate {token!r} in column 2 "
                          f"(replicate), expected {j}")
    day = np.frombuffer(day, dtype=np.intc)
    if np.any(day[1:] < day[:-1]):  # a day's rows are not contiguous in the file
        values = values[np.argsort(day, kind="stable")]
    return list(days_seen), values.reshape(len(days_seen), m, len(location_ids))
