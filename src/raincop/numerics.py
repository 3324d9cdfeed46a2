"""The jittered Cholesky factor, the symmetry test and the working-set budget.

Every special function the package needs (Bessel K, log-gamma, the
regularized incomplete gamma and its inverse, the normal CDF and quantile)
is called from ``scipy.special`` at the one place that uses it. All routines
are pure and operate in double precision. SpdFactor instances are immutable
and safe to share between threads.
day_chunks is the one reader of the element budget that bounds every
working array walked in pieces: days, theta groups and row blocks alike.
map_chunks is the one owner of threads: it runs independent chunks on a pool
when its caller asks for more than one thread, never more threads than the
host has cores.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "SpdFactor",
    "day_chunks",
    "ensemble_arrays",
    "is_symmetric",
    "map_chunks",
    "spd_factorize",
]

# Jitter escalation ladder for Cholesky retries: 1e-10 up to the 1e-6 ceiling
# in multiplicative x10 steps. Unit-diagonal correlation matrices are then
# perturbed below diagnostic tolerance.
JITTER_START = 1e-10
JITTER_CEILING = 1e-6

# Float64 elements allowed in one working array (512 KiB): bounds a day
# chunk's (days, m, n) normals and a theta group's n x n factors alike. Small
# enough that a chunk's pair differences stay in a core's cache, large enough
# to amortise numpy's per-call cost over tens of days at n = 20.
_ELEMENT_BUDGET = 1 << 16


class NotPositiveDefinite(Exception):
    """Matrix could not be Cholesky-factorized even at the jitter ceiling."""


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor of a symmetric positive-definite matrix.

    Attributes
    ----------
    lower : ndarray, shape (n, n)
        Lower-triangular L with L @ L.T reproducing the (possibly jittered)
        input matrix.
    jitter_applied : float
        Magnitude of the diagonal regularization that was actually added
        before factorization succeeded (0.0 when none was needed).
    """

    lower: np.ndarray
    jitter_applied: float


def day_chunks(n_days: int, cells_per_day: int) -> list:
    """Consecutive day slices, each holding at most the element budget of cells."""
    step = max(1, _ELEMENT_BUDGET // max(cells_per_day, 1))
    return [slice(s, min(s + step, n_days)) for s in range(0, n_days, step)]


def map_chunks(fn, chunks, threads: int) -> list:
    """[fn(chunk) for chunk in chunks], on a pool of `threads` threads when above one.

    The pool holds at most one thread a core: each holds a chunk's working set,
    and more threads than cores add memory, not speed. One thread maps inline:
    an executor costs tens of milliseconds and a few MB even with one worker.
    fn must compute each chunk's result on its own; the results come back in
    chunk order whatever order the chunks ran in.
    """
    threads = min(threads, os.cpu_count() or 1)
    if threads == 1:
        return list(map(fn, chunks))
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, chunks))


def ensemble_arrays(samples, obs):
    """(days, m, n) samples and (days, n) observations as C-ordered float arrays.

    C order fixes the summation order of every reduction, so a kernel's
    result does not depend on the layout of the arrays it is given.
    """
    samples = np.ascontiguousarray(samples, dtype=float)
    obs = np.ascontiguousarray(obs, dtype=float)
    if samples.ndim != 3 or obs.shape != (samples.shape[0], samples.shape[2]):
        raise ValueError("samples must be (days, m, n) aligned with (days, n) observations")
    if samples.shape[1] < 2:
        raise ValueError("need at least two ensemble members")
    return samples, obs


def is_symmetric(a: np.ndarray) -> bool:
    """np.allclose(a, a.T, 1e-12, 1e-12) of a square a, with one block of rows' temporaries.

    A block of rows equal to its mirror passes on that exact test alone; only
    a block that differs pays for np.isclose.
    """
    step = max(1, (1 << 13) // max(a.shape[0], 1))
    return all(np.array_equal(a[r:r + step], a[:, r:r + step].T)
               or np.isclose(a[r:r + step], a[:, r:r + step].T, 1e-12, 1e-12).all()
               for r in range(0, a.shape[0], step))


def spd_factorize(matrix: np.ndarray) -> SpdFactor:
    """Cholesky-factorize a symmetric matrix, escalating diagonal jitter on failure.

    Tries the plain factorization first, then retries with jitter
    1e-10, 1e-9, ..., 1e-6 added to the diagonal, recording the value that
    succeeded.

    Raises
    ------
    ValueError
        If the input is not symmetric within 1e-12 relative tolerance.
    NotPositiveDefinite
        If factorization still fails at the jitter ceiling.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("spd_factorize requires a square matrix")
    if not is_symmetric(a):
        raise ValueError("spd_factorize requires a symmetric matrix (1e-12 relative)")

    try:
        return SpdFactor(lower=np.linalg.cholesky(a), jitter_applied=0.0)
    except np.linalg.LinAlgError:
        pass

    jittered = a + 0.0  # one copy to jitter in place; + 0.0 makes -0.0 0.0, as a + jitter * I would
    jitter = JITTER_START
    while jitter <= JITTER_CEILING * (1.0 + 1e-12):
        np.fill_diagonal(jittered, a.diagonal() + jitter)
        try:
            return SpdFactor(lower=np.linalg.cholesky(jittered), jitter_applied=jitter)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NotPositiveDefinite(
        f"matrix is not positive definite even with diagonal jitter {JITTER_CEILING:g}"
    )
