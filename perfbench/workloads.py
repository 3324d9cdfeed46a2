"""The benchmark's workloads: the make-up of their inputs and each stage's command line.

Every stage runs with ``--threads 1`` and the CLI defaults for the copula
(theta search on [200, 800] with 13 grid points, m = 30, refinement on 64
days; a = 0.9, nu = 3.5). Inputs come from ``raincop synth`` (homogeneous law
p = 0.6, mu = 3, phi = 1.2, theta_true = 450) or, for ``long``, from
make_long.py with the link-linear coefficients below.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from dataclasses import dataclass

# Generating coefficients of the `long` workload (on raw N(0, 1) features).
LONG_COEFFS = {
    "alpha0": 0.4, "alpha": [0.6, -0.4, 0.25],
    "beta0": 1.1, "beta": [0.3, -0.2, 0.15],
    "gamma0": 0.2, "gamma": [0.2, 0.1, -0.15],
}
LONG_SHAPE = (20, 1500)

STAGES = ("fit", "estimate", "simulate", "diagnose")
THETA_TRUE = 450.0
BLEND = 0.9
TOPO_SCALE = 70.0
BETA = 0.5
GRID = (200.0, 800.0, 13)


@dataclass(frozen=True)
class Workload:
    name: str
    n_locations: int
    n_days: int
    sim_m: int
    features: bool


WORKLOADS = {
    "wide": Workload("wide", 400, 60, 20, False),
    "long": Workload("long", LONG_SHAPE[0], LONG_SHAPE[1], 20, True),
}

# Tiny stand-ins that run every stage and check in seconds (--self-check).
TINY = {"wide": (24, 60, 10), "long": (6, 300, 10)}


def tiny(w: Workload) -> Workload:
    n, t, m = TINY[w.name]
    return dataclasses.replace(w, n_locations=n, n_days=t, sim_m=m)


def cli(*args) -> list:
    """argv of ``raincop <args>`` run from the checkout's sources."""
    return [sys.executable, "-m", "raincop.cli", *(str(a) for a in args)]


def setup_args(w: Workload, out: str, seed: int) -> list:
    """Arguments (after the program) that write the workload's input files into out."""
    if w.features:
        return ["--out", out, "--seed", seed,
                "--n-locations", w.n_locations, "--days", w.n_days]
    return ["synth", "--out", out, "--seed", seed,
            "--n-locations", w.n_locations, "--days", w.n_days]


def stage_args(w: Workload, inputs: str, out: str, seed: int) -> dict:
    """Per-stage raincop arguments; each stage reads what the previous one wrote."""
    loc = os.path.join(inputs, "locations.csv")
    rain = os.path.join(inputs, "rainfall.csv")
    marg = os.path.join(out, "fit", "marginals.csv")
    common = ["--seed", seed, "--threads", 1]
    fit = ["fit-marginals", "--locations", loc, "--rainfall", rain,
           "--out", os.path.join(out, "fit"), *common]
    if w.features:
        fit += ["--features", os.path.join(inputs, "features.csv"),
                "--transform", "standardize"]
    return {
        "fit": fit,
        "estimate": ["estimate-theta", "--locations", loc, "--rainfall", rain,
                     "--marginals", marg, "--out", os.path.join(out, "est"), *common],
        "simulate": ["simulate", "--locations", loc, "--rainfall", rain,
                     "--marginals", marg, "--summary", os.path.join(out, "est", "summary.json"),
                     "--m", w.sim_m, "--out", os.path.join(out, "sim"), *common],
        "diagnose": ["diagnose", "--locations", loc, "--rainfall", rain,
                     "--marginals", marg, "--ensemble", os.path.join(out, "sim", "ensemble.csv"),
                     "--out", os.path.join(out, "diag"), *common],
    }
