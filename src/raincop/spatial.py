"""Distance-matrix construction and Matérn-kernel covariance matrices.

The inter-location distance is a blend of two ingredients: plain Euclidean
norms on raw (lat, lon) pairs (no great-circle correction) and absolute
differences of elevation scaled by ``topo_scale``, combined as
``a * geographic + (1 - a) * topographic / topo_scale``. The blended
distances go through a Matérn kernel elementwise to produce a unit-diagonal
correlation matrix. The blend is not Euclidean, so that matrix can be
indefinite; it is always projected back to the nearest valid correlation
matrix by flooring its spectrum, then factorized under the jitter policy.
Kernel and repair work in one n x n array, which becomes the covariance; the
covariance keeps no reference to the distance matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .numerics import SpdFactor, is_symmetric, spd_factorize
from .panel import IngestError, float_text, read_csv, reject_cells, reject_repeat, write_csv

__all__ = [
    "LocationTable",
    "DistanceMatrix",
    "MaternParams",
    "CovarianceMatrix",
    "check_blend",
    "build_distance_matrix",
    "matern_kernel",
    "build_covariance",
    "repaired_correlation",
    "read_locations",
    "write_locations",
    "DEFAULT_BLEND",
    "DEFAULT_TOPO_SCALE",
    "DEFAULT_NU",
]

DEFAULT_BLEND = 0.9
DEFAULT_TOPO_SCALE = 70.0
DEFAULT_NU = 3.5


@dataclass(frozen=True)
class LocationTable:
    """Site metadata: unique ids, coordinates in degrees, elevation."""

    ids: tuple
    lat: np.ndarray
    lon: np.ndarray
    elev: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        for name in ("lat", "lon", "elev"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.ids)
        if not (self.lat.shape == self.lon.shape == self.elev.shape == (n,)):
            raise ValueError("ids, lat, lon, elev must have one common length")
        if len(set(self.ids)) != n:
            raise ValueError("location ids must be unique")
        if not (np.all(np.isfinite(self.lat)) and np.all(np.isfinite(self.lon))
                and np.all(np.isfinite(self.elev))):
            raise ValueError("coordinates and elevations must be finite")
        if np.any(np.abs(self.lat) > 90.0):
            raise ValueError("latitude outside [-90, 90]")
        if np.any(np.abs(self.lon) > 180.0):
            raise ValueError("longitude outside [-180, 180]")

    def __len__(self) -> int:
        return len(self.ids)

    def subset(self, indices) -> "LocationTable":
        idx = np.asarray(indices, dtype=int)
        return LocationTable(
            ids=tuple(self.ids[i] for i in idx),
            lat=self.lat[idx], lon=self.lon[idx], elev=self.elev[idx],
        )


@dataclass(frozen=True)
class DistanceMatrix:
    """Blended n x n distance matrix."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("distance matrix must be square")
        if not is_symmetric(v):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(v) != 0.0):
            raise ValueError("distance matrix must have a zero diagonal")
        if np.any(v < 0.0):
            raise ValueError("distances must be nonnegative")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def subset(self, indices) -> "DistanceMatrix":
        idx = np.asarray(indices, dtype=int)
        return DistanceMatrix(values=self.values[np.ix_(idx, idx)])


@dataclass(frozen=True)
class MaternParams:
    """Kernel parameters: lengthscale theta > 0 and smoothness nu in (0, 10] (default 3.5)."""

    theta: float
    nu: float = DEFAULT_NU

    def __post_init__(self):
        if not (self.theta > 0.0 and np.isfinite(self.theta)):
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not (self.nu > 0.0 and np.isfinite(self.nu)):
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.nu > 10.0:  # K_nu(1e-8) stays finite: K_10(1e-8) is about 1.9e88
            raise ValueError(f"nu must be at most 10, got {self.nu}")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Unit-diagonal Matérn correlation matrix with its cached Cholesky factor (no distances)."""

    sigma: np.ndarray
    params: MaternParams
    factor: SpdFactor = field(repr=False)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


def check_blend(a: float = DEFAULT_BLEND, topo_scale: float = DEFAULT_TOPO_SCALE) -> None:
    """Reject a blend coefficient outside [0, 1] or a topo_scale not positive and finite."""
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"blend coefficient a must lie in [0, 1], got {a}")
    if not (topo_scale > 0.0 and np.isfinite(topo_scale)):
        raise ValueError(f"topo_scale must be positive and finite, got {topo_scale}")


def build_distance_matrix(locs: LocationTable, a: float = DEFAULT_BLEND,
                          topo_scale: float = DEFAULT_TOPO_SCALE) -> DistanceMatrix:
    """Blend geographic and scaled topographic distances with coefficient a.

    a = 1 keeps only the (lat, lon) Euclidean distances, a = 0 only the
    elevation differences divided by topo_scale. Duplicate coordinates are
    allowed but produce zero off-diagonal distances, flagged as a warning
    since positive definiteness then rests on the jitter policy.
    The blend is built in place in two n x n arrays: a peak of about 2 n^2 doubles.
    """
    check_blend(a, topo_scale)
    if len(locs) < 2:
        raise ValueError("need at least two locations")

    values = np.square(np.subtract.outer(locs.lat, locs.lat))
    term = np.subtract.outer(locs.lon, locs.lon)
    values += np.square(term, out=term)
    np.sqrt(values, out=values)
    values *= a
    np.abs(np.subtract.outer(locs.elev, locs.elev, out=term), out=term)
    term *= 1.0 - a
    values += np.divide(term, topo_scale, out=term)
    del term  # the checks below need only values
    np.fill_diagonal(values, 0.0)

    if np.count_nonzero(values == 0.0) > len(locs):
        warnings.warn(
            "duplicate locations produce zero off-diagonal distances; "
            "covariance validity will rest on the jitter policy",
            UserWarning,
        )
    return DistanceMatrix(values=values)


def _matern_half_integer(x: np.ndarray, n: int) -> None:
    # exp(-x) * n!/(2n)! * sum_k (n+k)!/(k!(n-k)!) (2x)^(n-k); exact for nu = n + 1/2
    # and finite at x = 0 where it evaluates to 1. Turns x into the result in place.
    lead = math.factorial(n) / math.factorial(2 * n)
    acc = np.zeros_like(x)
    term = np.empty_like(x)
    for k in range(n + 1):
        coef = math.factorial(n + k) / (math.factorial(k) * math.factorial(n - k))
        np.multiply(x, 2.0, out=term)
        term **= n - k  # in place, through the same scalar-power fast paths as t ** p
        acc += np.multiply(term, coef, out=term)
    np.exp(np.negative(x, out=x), out=x)
    x *= lead
    x *= acc


def matern_kernel(d, params: MaternParams):
    """Matérn correlation at distance d >= 0; exactly 1 at d = 0.

    Half-integer smoothness uses the closed polynomial-times-exponential
    form; other orders evaluate 2^(1-nu)/Gamma(nu) * x^nu * K_nu(x) with
    x = sqrt(2 nu) d / theta, returning the analytic limit 1 at d = 0 where
    that product is indeterminate. x is capped at 1e3, where both forms are 0
    in double precision, so an x that overflows gives 0, not NaN. A K_nu(x)
    beyond double range (nu < 1, x near the smallest double) raises
    OverflowError. The result is built in x's array; the closed form holds
    two more of d's size, the general order the positive part of x and K_nu
    there.
    """
    d_a = np.asarray(d, dtype=float)
    scalar = d_a.ndim == 0
    d_a = np.atleast_1d(d_a)
    if np.any(d_a < 0.0) or not np.all(np.isfinite(d_a)):
        raise ValueError("distances must be finite and nonnegative")
    nu = params.nu
    x = np.minimum(np.sqrt(2.0 * nu) * d_a / params.theta, 1e3)

    n_half = round(nu - 0.5)
    if n_half >= 0 and abs(nu - (n_half + 0.5)) < 1e-12:
        _matern_half_integer(x, n_half)
    else:
        # Below this the kernel is 1 to double precision for nu >= 1; evaluating
        # the x^nu * K_nu(x) product there would hit overflow in the K factor.
        pos = x > 1e-8 if nu >= 1.0 else x > 0.0
        log_pref = (1.0 - nu) * np.log(2.0) - _sp.gammaln(nu)
        val = x[pos]
        with np.errstate(under="ignore", over="ignore"):
            k_nu = _sp.kv(nu, val)
            if np.isinf(k_nu).any():
                raise OverflowError(f"K_{nu}(x) overflows double precision at x = "
                                    f"{val.min():g}")
            np.log(val, out=val)
            val *= nu
            val += log_pref
            np.exp(val, out=val)
            val *= k_nu
        x.fill(1.0)
        x[pos] = val
    np.clip(x, 0.0, 1.0, out=x)
    return float(x[0]) if scalar else x


def repaired_correlation(sigma: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    """Nearest-by-eigenvalue unit-diagonal repair of an indefinite correlation matrix.

    The additive distance blend is not Euclidean-embeddable, so for smooth
    kernels (nu > 1/2) the elementwise Matérn matrix can carry structurally
    negative eigenvalues whenever both blend ingredients vary at resolved
    scales, far beyond what the jitter ladder absorbs. This floors the
    spectrum at `floor`, reconstitutes, and renormalizes back to a unit
    diagonal. A positive-definite sigma is returned unchanged; otherwise the
    repaired matrix is written over sigma, which is returned.
    """
    w, v = np.linalg.eigh(sigma)
    if w[0] >= floor:
        return sigma
    np.matmul(v * np.maximum(w, floor), v.T, out=sigma)
    del v  # before np.outer's n x n temporary
    d = np.sqrt(np.diag(sigma))
    sigma /= np.outer(d, d)
    sigma += sigma.T  # numpy buffers the overlapping transpose
    sigma *= 0.5
    np.fill_diagonal(sigma, 1.0)
    return sigma


def build_covariance(distance: DistanceMatrix, params: MaternParams) -> CovarianceMatrix:
    """Apply the kernel elementwise, repair the result and factorize it.

    An indefinite kernel matrix is first projected back to a valid
    correlation matrix (see repaired_correlation); a positive-definite one
    passes through unchanged. The Cholesky factor (possibly jittered per the
    escalation policy) is cached on the result for reuse by the sampler; the
    stored matrix itself keeps its exact unit diagonal. Kernel and repair share
    one n x n array, and a distance matrix passed straight in from
    build_distance_matrix is freed before the repair's eigendecomposition.
    """
    sigma = matern_kernel(distance.values.ravel(), params).reshape(distance.values.shape)
    del distance
    np.fill_diagonal(sigma, 1.0)
    sigma = repaired_correlation(sigma)
    return CovarianceMatrix(sigma=sigma, params=params, factor=spd_factorize(sigma))


def read_locations(path) -> LocationTable:
    """Read a locations CSV with header id,lat,lon,elev."""
    def check_header(header):
        if [h.strip() for h in header] != ["id", "lat", "lon", "elev"]:
            raise IngestError(f"{path}: expected header 'id,lat,lon,elev', got {header}")

    ids, values = read_csv(path, check_header)
    ids = [loc_id.strip() for loc_id in ids]
    reject_repeat(path, ids, "id")
    reject_cells(path, ["id", "lat", "lon", "elev"], values,  # elevation has no bound
                 np.abs(values) > [90.0, 180.0, np.inf],
                 ["outside [-90, 90]", "outside [-180, 180]", ""])
    lat, lon, elev = values.T.copy()
    return LocationTable(ids=tuple(ids), lat=lat, lon=lon, elev=elev)


def write_locations(path, locs: LocationTable) -> None:
    """Locations CSV: id,lat,lon,elev, one row per site.

    An id that read_locations could not give back (one holding a comma or a
    line end, or with whitespace at either end) raises ValueError, naming
    it, before the file is opened.
    """
    unreadable = [i for i in locs.ids if i != i.strip() or any(c in i for c in ",\r\n")]
    if unreadable:
        raise ValueError(f"{path}: location ids {unreadable!r} would not read back: an id "
                         "holds no comma or line end and no whitespace at either end")
    write_csv(path, ["id", "lat", "lon", "elev"],
              ([loc_id, *float_text(row)]
               for loc_id, row in zip(locs.ids, zip(locs.lat, locs.lon, locs.elev))))
