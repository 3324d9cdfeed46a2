"""Zero-gamma mixture marginals and their joint link-linear parameterization.

A marginal law places probability mass 1 - p at exactly zero rainfall and a
gamma density (mean mu, dispersion phi) on positive amounts, using the
shape = 1/phi, scale = phi*mu parameterization (so the gamma mean is mu and
its variance phi*mu**2). The three parameters are tied to features through
logit/log/log links with shared coefficient vectors; fitting minimizes the
exact mixture negative log-likelihood: a logistic term for occurrence at
every observation plus the gamma term on wet observations only.

Each formula has one vectorized implementation: mixture_cdf and
mixture_quantile for the law, predict_field for the link map, _joint_loss
for the likelihood. The scalar helpers gm_cdf, gm_quantile, gm_sample and
jglm_predict wrap them for a single GammaMixture or feature vector.

Flat panel layout convention: wherever a (n_locations, n_days) panel is
flattened into feature/parameter rows, rows run date-major, i.e. row index
= day * n_locations + location (all locations for day 0, then day 1, ...).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .panel import IngestError, read_kv

__all__ = [
    "GammaMixture",
    "JglmCoefficients",
    "MarginalField",
    "IdentityTransform",
    "StandardizeTransform",
    "FitConfig",
    "FitResult",
    "gm_cdf",
    "gm_quantile",
    "gm_sample",
    "mixture_cdf",
    "mixture_quantile",
    "jglm_predict",
    "jglm_fit",
    "predict_field",
    "flatten_panel",
    "write_coefficients",
    "read_coefficients",
]

P_CLIP = 1e-12
# Keep uniforms strictly inside (0, 1) before inverting the gamma CDF.
U_HI = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class GammaMixture:
    """Marginal rainfall law: mass 1 - p at zero, gamma(mu, phi) above it."""

    p: float
    mu: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not (self.mu > 0.0 and np.isfinite(self.mu)):
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not (self.phi > 0.0 and np.isfinite(self.phi)):
            raise ValueError(f"phi must be positive, got {self.phi}")


@dataclass(frozen=True)
class JglmCoefficients:
    """Regression coefficients for the three link-linear predictors.

    alpha drives the occurrence-probability logit, beta the log gamma mean,
    gamma the log dispersion. The three vectors share one feature dimension
    (possibly zero for intercept-only models).
    """

    alpha0: float
    alpha: np.ndarray
    beta0: float
    beta: np.ndarray
    gamma0: float
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float).reshape(-1))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float).reshape(-1))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float).reshape(-1))
        d = self.alpha.size
        if self.beta.size != d or self.gamma.size != d:
            raise ValueError("alpha, beta, gamma must share one feature dimension")
        vals = [self.alpha0, self.beta0, self.gamma0]
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(self.alpha))
                and np.all(np.isfinite(self.beta)) and np.all(np.isfinite(self.gamma))):
            raise ValueError("coefficients must be finite")

    @property
    def feature_dim(self) -> int:
        return self.alpha.size

    def pack(self) -> np.ndarray:
        return np.concatenate(
            [[self.alpha0], self.alpha, [self.beta0], self.beta, [self.gamma0], self.gamma]
        )

    @classmethod
    def unpack(cls, vec: np.ndarray, feature_dim: int) -> "JglmCoefficients":
        d = feature_dim
        if vec.size != 3 * (d + 1):
            raise ValueError("coefficient vector has wrong length")
        return cls(
            alpha0=float(vec[0]), alpha=vec[1:d + 1],
            beta0=float(vec[d + 1]), beta=vec[d + 2:2 * d + 2],
            gamma0=float(vec[2 * d + 2]), gamma=vec[2 * d + 3:],
        )

    @classmethod
    def zeros(cls, feature_dim: int) -> "JglmCoefficients":
        z = np.zeros(feature_dim)
        return cls(0.0, z.copy(), 0.0, z.copy(), 0.0, z.copy())


class MarginalField:
    """Per-location, per-day mixture parameters as dense (n_locations, n_days) arrays."""

    def __init__(self, p: np.ndarray, mu: np.ndarray, phi: np.ndarray):
        self.p = np.asarray(p, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        if self.p.ndim != 2 or self.p.shape != self.mu.shape or self.p.shape != self.phi.shape:
            raise ValueError("p, mu, phi must be 2-d arrays of one shape")
        if np.any(self.p < 0.0) or np.any(self.p > 1.0) or not np.all(np.isfinite(self.p)):
            raise ValueError("p must lie in [0, 1]")
        if np.any(self.mu <= 0.0) or not np.all(np.isfinite(self.mu)):
            raise ValueError("mu must be positive")
        if np.any(self.phi <= 0.0) or not np.all(np.isfinite(self.phi)):
            raise ValueError("phi must be positive")

    @property
    def n_locations(self) -> int:
        return self.p.shape[0]

    @property
    def n_days(self) -> int:
        return self.p.shape[1]

    def law(self, location: int, day: int) -> GammaMixture:
        return GammaMixture(
            p=float(self.p[location, day]),
            mu=float(self.mu[location, day]),
            phi=float(self.phi[location, day]),
        )

    def cdf(self, values: np.ndarray) -> np.ndarray:
        """Mixture CDF evaluated cellwise on an (n_locations, n_days) panel."""
        return mixture_cdf(self.p, self.mu, self.phi, values)

    @classmethod
    def homogeneous(cls, law: GammaMixture, n_locations: int, n_days: int) -> "MarginalField":
        shape = (n_locations, n_days)
        return cls(np.full(shape, law.p), np.full(shape, law.mu), np.full(shape, law.phi))

    @classmethod
    def from_flat(cls, p, mu, phi, n_locations: int, n_days: int) -> "MarginalField":
        """Build from date-major flat vectors (see module docstring)."""
        def reshape(v):
            return np.asarray(v, dtype=float).reshape(n_days, n_locations).T
        return cls(reshape(p), reshape(mu), reshape(phi))


def mixture_cdf(p, mu, phi, y):
    """Vectorized mixture CDF: 1 - p at y = 0, 1 - p + p*G(y) above."""
    p, mu, phi, y = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (p, mu, phi, y))
    )
    if np.any(y < 0.0):
        raise ValueError("rainfall values must be nonnegative")
    out = np.asarray(1.0 - p, dtype=float).copy()
    wet = y > 0.0
    if np.any(wet):
        g = _sp.gammainc(1.0 / phi[wet], y[wet] / (phi[wet] * mu[wet]))
        out[wet] = (1.0 - p[wet]) + p[wet] * g
    return out


def mixture_quantile(p, mu, phi, u):
    """Vectorized mixture quantile: 0 for u <= 1 - p, gamma quantile above."""
    p, mu, phi, u = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (p, mu, phi, u))
    )
    out = np.zeros(u.shape, dtype=float)
    wet = u > (1.0 - p)
    if np.any(wet):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (u[wet] - (1.0 - p[wet])) / p[wet]
        t = np.clip(t, 0.0, U_HI)
        out[wet] = _sp.gammaincinv(1.0 / phi[wet], t) * phi[wet] * mu[wet]
    return out


def gm_cdf(law: GammaMixture, y: float) -> float:
    """Mixture CDF at y >= 0; equals 1 - p exactly at y = 0."""
    return float(mixture_cdf(law.p, law.mu, law.phi, y))


def gm_quantile(law: GammaMixture, u: float) -> float:
    """Inverse mixture CDF for u in (0, 1); returns 0 whenever u <= 1 - p."""
    if not (0.0 < u < 1.0):
        raise ValueError("gm_quantile requires u in (0, 1)")
    return float(mixture_quantile(law.p, law.mu, law.phi, u))


def gm_sample(law: GammaMixture, rng: np.random.Generator, size=None):
    """Inverse-CDF draws; dry outcomes are exactly 0.0."""
    draws = mixture_quantile(law.p, law.mu, law.phi, rng.random(size))
    return float(draws) if size is None else draws


def jglm_predict(features, coeffs: JglmCoefficients) -> GammaMixture:
    """Map one feature vector through the links: logit p, log mu, log phi."""
    z = np.asarray(features, dtype=float).reshape(1, -1)
    return predict_field(coeffs, IdentityTransform(), z, 1, 1).law(0, 0)


class IdentityTransform:
    """Pass features through unchanged."""

    name = "identity"

    def fit(self, features: np.ndarray) -> "IdentityTransform":
        return self

    def apply(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=float)


class StandardizeTransform:
    """Affine per-feature standardization with mean/scale learned from training data."""

    name = "standardize"

    def __init__(self, mean=None, scale=None):
        self.mean = None if mean is None else np.asarray(mean, dtype=float)
        self.scale = None if scale is None else np.asarray(scale, dtype=float)

    def fit(self, features: np.ndarray) -> "StandardizeTransform":
        x = np.asarray(features, dtype=float)
        self.mean = x.mean(axis=0)
        sd = x.std(axis=0)
        # Constant columns pass through centered rather than dividing by zero.
        self.scale = np.where(sd > 0.0, sd, 1.0)
        return self

    def apply(self, features: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise ValueError("StandardizeTransform must be fitted before use")
        return (np.asarray(features, dtype=float) - self.mean) / self.scale


TRANSFORMS = {"identity": IdentityTransform, "standardize": StandardizeTransform}


def make_transform(name: str):
    try:
        return TRANSFORMS[name]()
    except KeyError:
        raise ValueError(f"unknown feature transform {name!r}") from None


@dataclass
class FitConfig:
    """Gradient-descent settings for jglm_fit."""

    step: float = 1.0
    max_iter: int = 5000
    rel_tol: float = 1e-8
    grad_tol: float = 1e-10


@dataclass
class FitResult:
    coeffs: JglmCoefficients
    transform: object
    converged: bool
    n_iter: int
    final_loss: float
    grad_norm: float
    loss_path: list = field(default_factory=list)


def _joint_loss(vec, z, y, wet, feature_dim, want_grad):
    c = JglmCoefficients.unpack(vec, feature_dim)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ta = c.alpha0 + z @ c.alpha
        p = _sp.expit(ta)
        pc = np.clip(p, P_CLIP, 1.0 - P_CLIP)
        loss = -(np.where(wet, np.log(pc), np.log(1.0 - pc))).sum()

        zw = z[wet]
        yw = y[wet]
        tb = c.beta0 + zw @ c.beta
        tg = c.gamma0 + zw @ c.gamma
        mu = np.exp(tb)
        k = np.exp(-tg)
        log_ratio = np.log(yw * k / mu)
        log_f = k * log_ratio - np.log(yw) - yw * k / mu - _sp.gammaln(k)
        loss -= log_f.sum()

        if not np.isfinite(loss):
            return np.inf, None
        if not want_grad:
            return float(loss), None

        resid_a = p - wet  # d/d(logit p) of the occurrence loss
        resid_b = k * (1.0 - yw / mu)
        resid_g = k * (log_ratio + 1.0 - yw / mu - _sp.digamma(k))
        grad = np.concatenate([
            [resid_a.sum()], z.T @ resid_a,
            [resid_b.sum()], zw.T @ resid_b,
            [resid_g.sum()], zw.T @ resid_g,
        ])
    if not np.all(np.isfinite(grad)):
        return np.inf, None
    return float(loss), grad


def jglm_fit(features, rain, transform=None, config: FitConfig | None = None) -> FitResult:
    """Fit shared link-linear coefficients by minimizing the joint mixture loss.

    Parameters
    ----------
    features : ndarray, shape (N, d)
        Raw predictor rows, one per observation (date-major when the rows
        come from a flattened panel). d may be 0 for intercept-only fits.
    rain : ndarray
        Observed rainfall aligned with the feature rows; any shape, raveled
        date-major.
    transform : feature transform, optional
        Fitted on the raw features before regression; identity by default.
    config : FitConfig, optional

    The descent is plain full-batch gradient descent with a backtracking
    line search from an all-zero start (links then give p = 0.5 and
    mu = phi = 1), so the training loss is nonincreasing across accepted
    iterations and the returned loss never exceeds the initial one. A fit
    that hits the iteration cap is still returned, flagged via
    ``converged=False`` with its final gradient norm.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-d (N, d) array")
    y = np.asarray(rain, dtype=float).ravel()
    if y.size != x.shape[0]:
        raise ValueError(f"{y.size} observations but {x.shape[0]} feature rows")
    if np.any(y < 0.0) or not np.all(np.isfinite(y)):
        raise ValueError("rainfall must be finite and nonnegative")
    wet = y > 0.0
    if not wet.any() or wet.all():
        raise ValueError("fit requires at least one wet and one dry observation")
    config = config or FitConfig()
    transform = transform or IdentityTransform()
    z = transform.fit(x).apply(x)
    d = z.shape[1]

    vec = JglmCoefficients.zeros(d).pack()
    loss, grad = _joint_loss(vec, z, y, wet, d, want_grad=True)
    step = config.step
    path = [loss]
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        gnorm2 = float(grad @ grad)
        if np.sqrt(gnorm2) <= config.grad_tol:
            converged = True
            break
        new_loss = None
        s = step
        while s > 1e-20:
            cand = vec - s * grad
            cand_loss, _ = _joint_loss(cand, z, y, wet, d, want_grad=False)
            if cand_loss <= loss - 1e-4 * s * gnorm2:
                new_loss = cand_loss
                break
            s *= 0.5
        if new_loss is None:
            # No admissible step: the iterate is at numerical stationarity.
            converged = True
            break
        rel_drop = (loss - new_loss) / max(abs(loss), 1.0)
        vec = cand
        loss, grad = _joint_loss(vec, z, y, wet, d, want_grad=True)
        path.append(loss)
        step = min(s * 2.0, 1e6)
        if rel_drop <= config.rel_tol:
            converged = True
            break

    grad_norm = float(np.linalg.norm(grad))
    if not converged:
        warnings.warn(
            f"jglm_fit stopped at the iteration cap ({config.max_iter}); "
            f"final gradient norm {grad_norm:.3e}",
            RuntimeWarning,
        )
    return FitResult(
        coeffs=JglmCoefficients.unpack(vec, d),
        transform=transform,
        converged=converged,
        n_iter=it,
        final_loss=float(loss),
        grad_norm=grad_norm,
        loss_path=path,
    )


def predict_field(coeffs: JglmCoefficients, transform, features,
                  n_locations: int, n_days: int) -> MarginalField:
    """Evaluate the links on every feature row and shape into a field.

    Feature rows must be date-major (row = day * n_locations + location).
    """
    z = transform.apply(np.asarray(features, dtype=float))
    if z.shape != (n_locations * n_days, coeffs.feature_dim):
        raise ValueError("feature matrix shape does not match the requested field")
    ta = coeffs.alpha0 + z @ coeffs.alpha
    tb = coeffs.beta0 + z @ coeffs.beta
    tg = coeffs.gamma0 + z @ coeffs.gamma
    if not (np.all(np.isfinite(ta)) and np.all(np.isfinite(tb)) and np.all(np.isfinite(tg))):
        raise ValueError("non-finite linear predictor")
    return MarginalField.from_flat(
        _sp.expit(ta), np.exp(tb), np.exp(tg), n_locations, n_days
    )


def flatten_panel(values: np.ndarray) -> np.ndarray:
    """Ravel an (n_locations, n_days) panel date-major (day blocks, locations inside)."""
    return np.asarray(values, dtype=float).T.ravel()


def write_coefficients(path, coeffs: JglmCoefficients, transform) -> None:
    """Serialize coefficients and the feature transform as flat key=value lines."""
    lines = [f"feature_dim={coeffs.feature_dim}", f"transform={transform.name}"]
    for name, v0, vec in (("alpha", coeffs.alpha0, coeffs.alpha),
                          ("beta", coeffs.beta0, coeffs.beta),
                          ("gamma", coeffs.gamma0, coeffs.gamma)):
        lines.append(f"{name}0={float(v0)!r}")
        lines += [f"{name}.{k}={v!r}" for k, v in enumerate(vec.tolist())]
    if transform.name == "standardize":
        for name, vec in (("mean", transform.mean), ("scale", transform.scale)):
            lines += [f"{name}.{k}={v!r}" for k, v in enumerate(vec.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficients(path):
    """Inverse of write_coefficients: (coeffs, transform); a missing key is an IngestError."""
    kv = read_kv(path)

    def value(key):
        if key not in kv:
            raise IngestError(f"{path}: missing key {key!r}")
        return kv[key][1]

    d = int(value("feature_dim"))

    def vector(prefix):
        return np.array([float(value(f"{prefix}.{k}")) for k in range(d)])

    coeffs = JglmCoefficients(
        alpha0=float(value("alpha0")), alpha=vector("alpha"),
        beta0=float(value("beta0")), beta=vector("beta"),
        gamma0=float(value("gamma0")), gamma=vector("gamma"),
    )
    name = value("transform")
    if name == "standardize":
        transform = StandardizeTransform(mean=vector("mean"), scale=vector("scale"))
    elif name == "identity":
        transform = IdentityTransform()
    else:
        raise IngestError(f"{path}: unknown feature transform {name!r}")
    return coeffs, transform
