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
write_ensemble takes the blocks as they are drawn, and read_ensemble hands
each day chunk over as soon as its rows are parsed, so a reader of a long
forecast holds one chunk of it.
"""

from __future__ import annotations

import warnings
from array import array

import numpy as np
from scipy import special as _sp

from .marginals import MarginalField, mixture_cdf, mixture_quantile
from .numerics import day_chunks
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
    """(len(days), m, n) standard normals, day d's from substream(seed, *path, d).

    Each day's draws are written straight into its slot of the one array."""
    out = np.empty((len(days), m, n))
    for slot, day in zip(out, days):
        substream(seed, *path, day).standard_normal(out=slot)
    return out


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


def read_ensemble(path, location_ids, start) -> None:
    """Read an ensemble CSV, handing its days over a day chunk at a time.

    Every day must hold the same number m of rows, carrying replicate
    0, 1, ..., m - 1 in that order; a day's rows need not be contiguous. A
    ragged day raises IngestError, and so do a replicate out of place and a
    non-numeric, non-finite or negative cell, naming the file, row and
    column; a bad cell comes first. A first pass reads only the key columns,
    placing every row; the second parses the cells into their places.

    start(day_labels, m) returns take, and take(days, samples) gets each
    numerics.day_chunks chunk, a slice of days and its (k, m, n) samples, in
    day order, as soon as its rows are parsed. A ValueError (IngestError too)
    that start raises is raised once the cells are checked. Beside the chunk
    the reader holds one block of the file, and more chunks only while a
    day's rows are spread through the file.
    """
    n = len(location_ids)
    expected = ["day", "replicate"] + [f"loc_{i}" for i in location_ids]

    def check_header(header):
        if header != expected:
            raise IngestError(f"{path}: ensemble header does not match the locations file")

    try:
        labels, runs, m, error = _scan_keys(path, check_header)
    except UnicodeDecodeError:  # the cell pass names the byte, or an earlier error
        labels, runs, m, error = [], None, 0, IngestError(f"{path}: not UTF-8")
    take = None
    if error is None:
        try:
            take = start(labels, m)
        except ValueError as exc:  # IngestError too: raised after the cells are checked
            error = exc
    chunks = day_chunks(len(labels), m * n)
    rows_per_chunk = chunks[0].stop * m if chunks else 1
    pending = {}  # chunk number -> [its (rows, n) cells, rows still to come]
    handed = 0  # chunks handed to take

    def place_rows(keys, values, first):
        nonlocal handed
        if take is None:
            return
        starts, run_day, run_place = runs
        rows = np.arange(first, first + len(values))
        run = np.searchsorted(starts, rows, side="right") - 1
        rows += (run_day[run] * m + run_place[run]) - starts[run]  # each row's day-major place
        chunk = rows // rows_per_chunk
        for c in np.unique(chunk).tolist():  # each chunk handed over before the next is made
            if c not in pending:
                k = chunks[c].stop - chunks[c].start
                pending[c] = [np.empty((k * m, n)), k * m]
            mine = chunk == c
            pending[c][0][rows[mine] - c * rows_per_chunk] = values[mine]
            pending[c][1] -= int(np.count_nonzero(mine))
            while handed in pending and pending[handed][1] == 0:
                take(chunks[handed], pending.pop(handed)[0].reshape(-1, m, n))
                handed += 1

    read_csv(path, 2, check_header, nonnegative=True, each_block=place_rows, collect=False)
    if error is not None:
        raise error


def _scan_keys(path, check_header):
    """The key pass of read_ensemble: (day labels, runs, m, error).

    Labels are in order of their first row. runs holds, for each run of data
    rows with one label, its first data row, its day's index and its first
    row's place in that day: one run a day in a contiguous file. error is the
    IngestError of a ragged day or else of the first day's first misplaced
    replicate, or None. Blank lines hold no data row, as in read_csv.
    """
    days: dict = {}  # label -> [its index, its rows so far]
    runs = array("i"), array("i"), array("i")
    misplaced = None  # (day, place, data row, token) of the first replicate out of place
    with open(path, encoding="utf-8") as fh:
        check_header(fh.readline().rstrip("\r\n").split(","))
        r, previous, seen = 0, None, None
        for line in fh:
            if line == "\n":
                continue
            label, _, rest = line.rstrip("\n").partition(",")
            if label != previous:
                seen = days.get(label)
                if seen is None:
                    seen = days[label] = [len(days), 0]
                for column, value in zip(runs, (r, *seen)):
                    column.append(value)
                previous = label
            d, j = seen
            seen[1] = j + 1
            token = rest.partition(",")[0]
            if token != str(j) and (misplaced is None or (d, j) < misplaced[:2]):
                misplaced = (d, j, r, token)
            r += 1
    sizes = {rows for _, rows in days.values()}
    m = sizes.pop() if len(sizes) == 1 else 0
    error = None
    if sizes:
        error = IngestError(f"{path}: ensemble days hold different numbers of replicates")
    elif misplaced:
        _, j, r, token = misplaced
        error = IngestError(f"{path}: row {file_row(path, r)}: replicate {token!r} in column 2 "
                            f"(replicate), expected {j}")
    return list(days), [np.frombuffer(column, dtype=np.intc) for column in runs], m, error
