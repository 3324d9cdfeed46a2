"""Synthetic-data generation with known ground truth.

Draws locations uniformly in a configurable box, builds the blended
distance matrix and true Matérn covariance, then simulates each day
independently as one joint_forecast draw from its own substream (in
budget-sized day chunks), so dry cells are exact zeros and the declared
marginals hold cellwise. Marginals are homogeneous by default (fixture
values, not fitted ones) or generated from link-linear coefficients on a
random feature matrix.

The default elevation span looks nothing like physical terrain: with
latitude/longitude kept in raw degrees the geographic distances top out
near 13, so the scaled topographic term is what stretches blended
distances across the default lengthscale search band [200, 800]. Shrink it
(and the lengthscale) together for physically scaled studies.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .copula import SUBSTREAM_TAGS, joint_forecast, substream
from .marginals import (GammaMixture, IdentityTransform, JglmCoefficients, MarginalField,
                        predict_field)
from .numerics import day_chunks
from .panel import RainPanel, write_json
from .spatial import (DEFAULT_BLEND, DEFAULT_NU, DEFAULT_TOPO_SCALE, DistanceMatrix,
                      LocationTable, MaternParams, build_covariance, build_distance_matrix,
                      check_blend)

__all__ = ["SynthSpec", "SynthResult", "generate_locations", "simulate_dataset",
           "write_truth"]

UK_LAT_RANGE = (49.9, 58.7)
UK_LON_RANGE = (-8.2, 1.8)
DEFAULT_ELEV_RANGE = (0.0, 800000.0)


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings; defaults are fixture choices, all exposed."""

    n_locations: int = 50
    n_days: int = 500
    theta_true: float = 450.0
    blend: float = DEFAULT_BLEND
    nu: float = DEFAULT_NU
    topo_scale: float = DEFAULT_TOPO_SCALE
    lat_range: tuple = UK_LAT_RANGE
    lon_range: tuple = UK_LON_RANGE
    elev_range: tuple = DEFAULT_ELEV_RANGE
    p: float = 0.6
    mu: float = 3.0
    phi: float = 1.2
    coeffs: JglmCoefficients | None = None
    seed: int = 0
    start_date: str = "1999-01-01"

    def __post_init__(self):
        MaternParams(theta=self.theta_true, nu=self.nu)
        check_blend(self.blend, self.topo_scale)
        if self.n_locations < 2:
            raise ValueError("need at least two locations")
        if self.n_days < 1:
            raise ValueError("need at least one day")
        GammaMixture(p=self.p, mu=self.mu, phi=self.phi)  # validates the fixture law
        for low, high in (self.lat_range, self.lon_range, self.elev_range):
            if not 0.0 <= high - low < np.inf:
                raise ValueError(f"a coordinate range needs low <= high, got ({low}, {high})")
        # the box's corners must be valid sites: finite, on the globe
        LocationTable(("low", "high"), self.lat_range, self.lon_range, self.elev_range)

    def day_labels(self) -> tuple:
        """ISO dates of the n_days days from start_date; a run past the last date is rejected."""
        start = datetime.date.fromisoformat(self.start_date)
        if self.n_days - 1 > (datetime.date.max - start).days:
            raise ValueError(f"{self.n_days} days from {start} run past {datetime.date.max}")
        return tuple((start + datetime.timedelta(days=s)).isoformat() for s in range(self.n_days))


@dataclass
class SynthResult:
    panel: RainPanel
    field: MarginalField
    distance: DistanceMatrix
    locations: LocationTable
    features: np.ndarray | None


def generate_locations(spec: SynthSpec) -> LocationTable:
    """Uniform sites in the configured box; deterministic per seed."""
    rng = substream(spec.seed, SUBSTREAM_TAGS["synth_locations"])
    n = spec.n_locations
    return LocationTable(
        ids=tuple(f"s{i:04d}" for i in range(n)),
        lat=rng.uniform(*spec.lat_range, size=n),
        lon=rng.uniform(*spec.lon_range, size=n),
        elev=rng.uniform(*spec.elev_range, size=n),
    )


def _marginal_field(spec: SynthSpec):
    if spec.coeffs is None:
        field = MarginalField.homogeneous(
            GammaMixture(p=spec.p, mu=spec.mu, phi=spec.phi),
            spec.n_locations, spec.n_days,
        )
        return field, None
    n, t = spec.n_locations, spec.n_days
    rng = substream(spec.seed, SUBSTREAM_TAGS["synth_features"])
    features = rng.standard_normal((n * t, spec.coeffs.feature_dim))
    field = predict_field(spec.coeffs, IdentityTransform(), features, n, t)
    return field, features


def simulate_dataset(spec: SynthSpec) -> SynthResult:
    """Simulate the full panel under the true covariance; days independent."""
    day_labels = spec.day_labels()
    locs = generate_locations(spec)
    distance = build_distance_matrix(locs, a=spec.blend, topo_scale=spec.topo_scale)
    cov = build_covariance(distance, MaternParams(theta=spec.theta_true, nu=spec.nu))
    field, features = _marginal_field(spec)

    draws = [joint_forecast(cov, field, range(spec.n_days)[sl], 1, spec.seed,
                            SUBSTREAM_TAGS["synth_days"])
             for sl in day_chunks(spec.n_days, spec.n_locations)]
    panel = RainPanel(values=np.concatenate(draws)[:, 0], location_ids=locs.ids,
                      day_labels=day_labels)
    return SynthResult(panel=panel, field=field, distance=distance,
                       locations=locs, features=features)


def write_truth(path, spec: SynthSpec) -> None:
    """Record the generator settings next to the emitted fixture files."""
    payload = {
        "theta_true": spec.theta_true,
        "blend": spec.blend,
        "nu": spec.nu,
        "topo_scale": spec.topo_scale,
        "n_locations": spec.n_locations,
        "n_days": spec.n_days,
        "lat_range": list(spec.lat_range),
        "lon_range": list(spec.lon_range),
        "elev_range": list(spec.elev_range),
        "seed": spec.seed,
        "start_date": spec.start_date,
        "marginals": (
            {"mode": "homogeneous", "p": spec.p, "mu": spec.mu, "phi": spec.phi}
            if spec.coeffs is None else
            {"mode": "jglm", "feature_dim": spec.coeffs.feature_dim}
        ),
    }
    write_json(path, payload)
