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
for the likelihood. The law functions broadcast over their arguments, so a
single GammaMixture's p, mu and phi go in as scalars; a draw from a law is
mixture_quantile at uniform draws, and a dry draw is exactly 0.0.

A field is (n_days, n_locations), like the panel it describes, so its cells
raveled in C order are the date-major feature rows predict_field evaluates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .panel import IngestError, float_text, read_kv

__all__ = [
    "GammaMixture",
    "JglmCoefficients",
    "MarginalField",
    "IdentityTransform",
    "StandardizeTransform",
    "FitResult",
    "mixture_cdf",
    "mixture_quantile",
    "jglm_fit",
    "predict_field",
    "write_coefficients",
    "read_coefficients",
]

P_CLIP = 1e-12
GRAD_TOL = 1e-9  # jglm_fit's stop: gradient norm per observation
MAX_ITER = 100   # jglm_fit's cap on Fisher-scoring steps
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
    """Per-day, per-location mixture parameters as dense (n_days, n_locations) arrays."""

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
        return self.p.shape[1]

    @property
    def n_days(self) -> int:
        return self.p.shape[0]

    @classmethod
    def homogeneous(cls, law: GammaMixture, n_locations: int, n_days: int) -> "MarginalField":
        shape = (n_days, n_locations)
        return cls(np.full(shape, law.p), np.full(shape, law.mu), np.full(shape, law.phi))


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
class FitResult:
    coeffs: JglmCoefficients
    transform: object
    converged: bool
    n_iter: int
    final_loss: float
    grad_norm: float
    loss_path: list


def _joint_loss(vec, z, y, wet, feature_dim, want_grad):
    """(loss, None), or with want_grad (loss, (grad, p, k)): p and k = 1/phi on the wet
    rows are the iterate's values _scoring_step weights by. Non-finite gives (inf, None)."""
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
    return float(loss), (grad, p, k)


def _scoring_step(z, wet, grad, p, k):
    """Solve each diagonal block of the expected information against grad's block.

    The alpha (every row), beta and gamma (wet rows) blocks weight the
    intercept-augmented features by p(1 - p), k and k(k psi'(k) - 1), k = 1/phi.
    lstsq takes the minimum-norm step where a constant feature column makes a
    block singular.
    """
    z1 = np.column_stack([np.ones(len(z)), z])
    weighted = ((z1, p * (1.0 - p)), (z1[wet], k),
                (z1[wet], k * (k * _sp.polygamma(1, k) - 1.0)))
    return np.concatenate([np.linalg.lstsq((zz.T * w) @ zz, g, rcond=None)[0]
                           for (zz, w), g in zip(weighted, np.split(grad, 3))])


def jglm_fit(features, rain, transform=None) -> FitResult:
    """Fit shared link-linear coefficients by minimizing the joint mixture loss.

    Parameters
    ----------
    features : ndarray, shape (N, d)
        Raw predictor rows, one per observation (date-major when the rows
        come from a flattened panel). d may be 0 for intercept-only fits.
    rain : ndarray
        Observed rainfall aligned with the feature rows, raveled in C order:
        a (n_days, n_locations) panel gives date-major rows.
    transform : feature transform, optional
        Fitted on the raw features before regression; identity by default.

    Fisher scoring from an all-zero start (p = 0.5, mu = phi = 1), each
    scoring step backtracked to the Armijo margin, so the loss falls at every
    iteration. The fit converges once the gradient norm is at most GRAD_TOL
    per observation; a fit whose line search finds no descent or that reaches
    MAX_ITER steps is returned with ``converged=False`` and a RuntimeWarning.
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
    transform = transform or IdentityTransform()
    z = transform.fit(x).apply(x)
    d = z.shape[1]

    vec = JglmCoefficients.zeros(d).pack()
    loss, (grad, p, k) = _joint_loss(vec, z, y, wet, d, want_grad=True)
    path = [loss]
    tol = GRAD_TOL * y.size
    n_iter = 0
    while np.linalg.norm(grad) > tol and n_iter < MAX_ITER:
        direction = _scoring_step(z, wet, grad, p, k)
        slope = float(grad @ direction)
        for s in 0.5 ** np.arange(40):
            cand = vec - s * direction
            cand_loss, _ = _joint_loss(cand, z, y, wet, d, want_grad=False)
            if cand_loss <= loss - 1e-4 * s * slope:
                break
        else:
            break  # no descent along the scoring direction
        vec = cand
        loss, (grad, p, k) = _joint_loss(vec, z, y, wet, d, want_grad=True)
        path.append(loss)
        n_iter += 1

    grad_norm = float(np.linalg.norm(grad))
    converged = grad_norm <= tol
    if not converged:
        warnings.warn(f"jglm_fit did not converge in {n_iter} iterations: gradient "
                      f"norm {grad_norm:.3e} above {tol:.3e}", RuntimeWarning)
    return FitResult(coeffs=JglmCoefficients.unpack(vec, d), transform=transform,
                     converged=converged, n_iter=n_iter, final_loss=float(loss),
                     grad_norm=grad_norm, loss_path=path)


def predict_field(coeffs: JglmCoefficients, transform, features,
                  n_locations: int, n_days: int) -> MarginalField:
    """Evaluate the links on every feature row and shape into a field.

    Feature rows must be date-major (row = day * n_locations + location), so
    row r is cell r of the (n_days, n_locations) field raveled in C order.
    """
    z = transform.apply(np.asarray(features, dtype=float))
    if z.shape != (n_locations * n_days, coeffs.feature_dim):
        raise ValueError("feature matrix shape does not match the requested field")
    ta = coeffs.alpha0 + z @ coeffs.alpha
    tb = coeffs.beta0 + z @ coeffs.beta
    tg = coeffs.gamma0 + z @ coeffs.gamma
    if not (np.all(np.isfinite(ta)) and np.all(np.isfinite(tb)) and np.all(np.isfinite(tg))):
        raise ValueError("non-finite linear predictor")
    return MarginalField(*(v.reshape(n_days, n_locations)
                           for v in (_sp.expit(ta), np.exp(tb), np.exp(tg))))


def write_coefficients(path, coeffs: JglmCoefficients, transform) -> None:
    """Serialize coefficients and the feature transform as flat key=value lines."""
    lines = [f"feature_dim={coeffs.feature_dim}", f"transform={transform.name}"]
    for name, v0, vec in (("alpha", coeffs.alpha0, coeffs.alpha),
                          ("beta", coeffs.beta0, coeffs.beta),
                          ("gamma", coeffs.gamma0, coeffs.gamma)):
        lines.append(f"{name}0={float_text([v0])[0]}")
        lines += [f"{name}.{k}={v}" for k, v in enumerate(float_text(vec))]
    if transform.name == "standardize":
        for name, vec in (("mean", transform.mean), ("scale", transform.scale)):
            lines += [f"{name}.{k}={v}" for k, v in enumerate(float_text(vec))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficients(path):
    """Inverse of write_coefficients: (coeffs, transform); bad or missing keys are IngestErrors."""
    kv = read_kv(path)

    def value(key, convert=str):
        if key not in kv:
            raise IngestError(f"{path}: missing key {key!r}")
        line_no, text = kv[key]
        try:
            return convert(text)
        except ValueError:
            raise IngestError(f"{path}: line {line_no}: invalid value {text!r} for {key}") from None

    d = value("feature_dim", int)

    def vector(prefix):
        return np.array([value(f"{prefix}.{k}", float) for k in range(d)])

    coeffs = JglmCoefficients(
        alpha0=value("alpha0", float), alpha=vector("alpha"),
        beta0=value("beta0", float), beta=vector("beta"),
        gamma0=value("gamma0", float), gamma=vector("gamma"),
    )
    name = value("transform")
    if name == "standardize":
        transform = StandardizeTransform(mean=vector("mean"), scale=vector("scale"))
    elif name == "identity":
        transform = IdentityTransform()
    else:
        raise IngestError(f"{path}: unknown feature transform {name!r}")
    return coeffs, transform
