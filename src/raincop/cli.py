"""Command-line front-end: synth, fit-marginals, estimate-theta, simulate, diagnose.

Configuration is a flat key=value file (# comments allowed); command-line
flags override file values, which override built-in defaults. Every
subcommand is deterministic for a fixed seed and inputs: reruns produce
byte-identical output files. --threads is accepted for compatibility and
changes neither the outputs nor the work done: no subcommand starts threads
of its own.

Exit codes: 0 success, 2 ingestion error, 3 numerical/convergence error
(including --strict escalations), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .copula import joint_forecast, read_ensemble, substream, write_ensemble
from .diagnostics import (EnsembleBlock, crps_sample, cross_correlation, ecdf_curve,
                          rank_histogram, rmsb_mab, roc_auc, variogram_score)
from .estimation import (ScoreConfig, ThetaSearchSpec, day_chunks, energy_scores,
                         estimate_theta, write_profile, write_summary)
from .marginals import (FitConfig, flatten_panel, jglm_fit, make_transform,
                        predict_field, write_coefficients)
from .numerics import NotPositiveDefinite
from .panel import (IngestError, read_features_csv, read_marginals_csv, read_rain_csv,
                    write_marginals_csv, write_rain_csv)
from .spatial import (MaternParams, build_covariance, build_distance_matrix,
                      read_locations, write_locations)
from .synth import SynthSpec, simulate_dataset, write_truth

_SIM_TAG = 21
_RANK_TAG = 20

DEFAULTS = {
    "a": 0.9, "topo_scale": 70.0, "nu": 3.5,
    "beta": 0.5, "m": 30, "seed": 0,
    "theta_min": 200.0, "theta_max": 800.0, "grid": 13, "theta_tol": 1.0,
    "day_subsample": "all", "location_subsample": "all", "refine_day_subsample": "64",
    "tau_grid": 1001, "q_levels": "0.5,5.0",
    "ecdf_levels": "0,0.5,1,2,4,8,16,32", "rank_bins": 10,
    "transform": "identity", "max_iter": 5000, "step": 1.0, "rel_tol": 1e-8,
    "threads": 1, "theta": None,
    "n_locations": 50, "days": 500, "theta_true": 450.0,
    "p": 0.6, "mu": 3.0, "phi": 1.2,
    "lat_min": 49.9, "lat_max": 58.7, "lon_min": -8.2, "lon_max": 1.8,
    "elev_min": 0.0, "elev_max": 800000.0,
    "start_date": "1999-01-01",
}


def load_config(path) -> dict:
    if not os.path.exists(path):
        raise IngestError(f"config file not found: {path}")
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise IngestError(f"{path}: line {line_no}: expected key=value")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


class Settings:
    """Layered lookup: CLI flag > config file > built-in default."""

    def __init__(self, args: argparse.Namespace):
        self.cli = vars(args)
        self.file = load_config(args.config) if getattr(args, "config", None) else {}

    def _raw(self, key):
        v = self.cli.get(key)
        if v is not None:
            return v
        if key in self.file:
            return self.file[key]
        return DEFAULTS.get(key)

    def str(self, key):
        v = self._raw(key)
        return None if v is None else str(v)

    def float(self, key) -> float:
        return float(self._raw(key))

    def int(self, key) -> int:
        return int(self._raw(key))

    def count_or_all(self, key):
        v = self._raw(key)
        if isinstance(v, str) and v.strip().lower() == "all":
            return "all"
        return int(v)

    def path(self, key, must_exist=True):
        v = self._raw(key)
        if v is None:
            raise IngestError(f"missing required path setting '{key}'")
        v = str(v)
        if must_exist and not os.path.exists(v):
            raise IngestError(f"{key} file not found: {v}")
        return v

    def floats(self, key):
        return [float(tok) for tok in str(self._raw(key)).split(",") if tok.strip()]


def _out_dir(settings: Settings) -> str:
    out = settings.str("out") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_synth(settings: Settings) -> int:
    spec = SynthSpec(
        n_locations=settings.int("n_locations"),
        n_days=settings.int("days"),
        theta_true=settings.float("theta_true"),
        blend=settings.float("a"),
        nu=settings.float("nu"),
        topo_scale=settings.float("topo_scale"),
        lat_range=(settings.float("lat_min"), settings.float("lat_max")),
        lon_range=(settings.float("lon_min"), settings.float("lon_max")),
        elev_range=(settings.float("elev_min"), settings.float("elev_max")),
        p=settings.float("p"), mu=settings.float("mu"), phi=settings.float("phi"),
        seed=settings.int("seed"),
        start_date=settings.str("start_date"),
    )
    out = _out_dir(settings)
    result = simulate_dataset(spec)
    write_locations(os.path.join(out, "locations.csv"), result.locations)
    write_rain_csv(os.path.join(out, "rainfall.csv"), result.panel)
    write_marginals_csv(os.path.join(out, "marginals.csv"), result.panel, result.field)
    write_truth(os.path.join(out, "truth.json"), spec)
    _log(f"synth: wrote {spec.n_locations} locations x {spec.n_days} days to {out}")
    return 0


def cmd_fit_marginals(settings: Settings, strict: bool) -> int:
    locs = read_locations(settings.path("locations"))
    panel = read_rain_csv(settings.path("rainfall"), locs)
    if settings.str("features") is not None:
        features = read_features_csv(settings.path("features"), panel)
    else:
        features = np.empty((panel.n_locations * panel.n_days, 0))
    transform = make_transform(settings.str("transform"))
    config = FitConfig(step=settings.float("step"), max_iter=settings.int("max_iter"),
                       rel_tol=settings.float("rel_tol"))
    fit = jglm_fit(features, flatten_panel(panel.values), transform, config)
    if not fit.converged:
        _log(f"fit-marginals: did not converge (grad norm {fit.grad_norm:.3e})")
        if strict:
            return 3
    field = predict_field(fit.coeffs, fit.transform, features,
                          panel.n_locations, panel.n_days)
    out = _out_dir(settings)
    write_coefficients(os.path.join(out, "coefficients.txt"), fit.coeffs, fit.transform)
    write_marginals_csv(os.path.join(out, "marginals.csv"), panel, field)
    _log(f"fit-marginals: loss {fit.final_loss:.6f} after {fit.n_iter} iterations")
    return 0


def cmd_estimate_theta(settings: Settings, strict: bool) -> int:
    locs = read_locations(settings.path("locations"))
    panel = read_rain_csv(settings.path("rainfall"), locs)
    field = read_marginals_csv(settings.path("marginals"), panel)
    distance = build_distance_matrix(locs, a=settings.float("a"),
                                     topo_scale=settings.float("topo_scale"))
    cfg = ScoreConfig(
        beta=settings.float("beta"), m=settings.int("m"),
        day_subsample=settings.count_or_all("day_subsample"),
        location_subsample=settings.count_or_all("location_subsample"),
        seed=settings.int("seed"),
    )
    search = ThetaSearchSpec(
        lower=settings.float("theta_min"), upper=settings.float("theta_max"),
        grid_size=settings.int("grid"), tol=settings.float("theta_tol"),
        refine_day_subsample=settings.count_or_all("refine_day_subsample"),
    )
    result = estimate_theta(panel.values, field, distance, cfg, search,
                            nu=settings.float("nu"), threads=settings.int("threads"))
    out = _out_dir(settings)
    write_profile(os.path.join(out, "profile.csv"), result.profile)
    write_summary(os.path.join(out, "summary.json"), result, cfg, search)
    _log(f"estimate-theta: theta_hat {result.theta_hat:.3f} "
         f"({result.n_evaluations} evaluations, {result.wall_clock_s:.2f}s)")
    if result.boundary:
        _log("estimate-theta: minimizer on search boundary")
        if strict:
            return 3
    return 0


def cmd_simulate(settings: Settings) -> int:
    locs = read_locations(settings.path("locations"))
    panel = read_rain_csv(settings.path("rainfall"), locs)
    field = read_marginals_csv(settings.path("marginals"), panel)
    theta = settings._raw("theta")
    if theta is None:
        summary_path = settings.path("summary")
        with open(summary_path, encoding="utf-8") as fh:
            theta = json.load(fh)["theta_hat"]
    theta = float(theta)
    distance = build_distance_matrix(locs, a=settings.float("a"),
                                     topo_scale=settings.float("topo_scale"))
    cov = build_covariance(distance, MaternParams(theta=theta, nu=settings.float("nu")),
                           repair=True)
    m = settings.int("m")
    seed = settings.int("seed")
    blocks = [joint_forecast(cov, field, s, m, substream(seed, _SIM_TAG, s))
              for s in range(panel.n_days)]
    out = _out_dir(settings)
    write_ensemble(os.path.join(out, "ensemble.csv"), panel.day_labels,
                   panel.location_ids, blocks)
    _log(f"simulate: {m} replicates x {panel.n_days} days at theta {theta:g}")
    return 0


def cmd_diagnose(settings: Settings) -> int:
    locs = read_locations(settings.path("locations"))
    panel = read_rain_csv(settings.path("rainfall"), locs)
    field = read_marginals_csv(settings.path("marginals"), panel)
    day_labels, raw_blocks = read_ensemble(settings.path("ensemble"), locs.ids)
    if list(day_labels) != list(panel.day_labels):
        raise IngestError("ensemble days do not match the rainfall panel")
    if len({b.shape[0] for b in raw_blocks}) != 1:
        raise IngestError("ensemble days hold different numbers of replicates")
    blocks = [EnsembleBlock(day=s, samples=raw_blocks[s], obs=panel.values[:, s])
              for s in range(panel.n_days)]
    distance = build_distance_matrix(locs, a=settings.float("a"),
                                     topo_scale=settings.float("topo_scale"))
    out = _out_dir(settings)
    seed = settings.int("seed")
    beta = settings.float("beta")

    tau_grid = np.linspace(0.0, 1.0, settings.int("tau_grid"))
    aucs = {}
    for q in settings.floats("q_levels"):
        curve = roc_auc(field, panel.values, q, tau_grid)
        aucs[f"{q:g}"] = None if np.isnan(curve.auc) else curve.auc
        lines = ["tau,fpr,tpr"]
        lines += [f"{repr(t)},{repr(f)},{repr(y)}"
                  for t, f, y in zip(curve.taus, curve.fpr, curve.tpr)]
        with open(os.path.join(out, f"roc_q{q:g}.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    bins = settings.int("rank_bins")
    counts, freq = rank_histogram(blocks, bins, substream(seed, _RANK_TAG))
    lines = ["bin,count,frequency"]
    lines += [f"{b},{int(c)},{repr(float(f))}" for b, (c, f) in enumerate(zip(counts, freq))]
    with open(os.path.join(out, "rank_hist.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    levels = np.array(settings.floats("ecdf_levels"))
    model_freq, obs_freq = ecdf_curve(blocks, levels)
    lines = ["level,model_freq,obs_freq"]
    lines += [f"{repr(float(x))},{repr(float(mf))},{repr(float(of))}"
              for x, mf, of in zip(levels, model_freq, obs_freq)]
    with open(os.path.join(out, "ecdf.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    center_id, obs_corr = cross_correlation(panel.values, locs)
    pooled = np.hstack([b.samples.T for b in blocks])  # (n, days*m)
    _, model_corr = cross_correlation(pooled, locs, center=center_id)
    lines = ["id,observed,model"]
    lines += [f"{i},{repr(float(o))},{repr(float(mc))}"
              for i, o, mc in zip(locs.ids, obs_corr, model_corr)]
    with open(os.path.join(out, "crosscorr.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    crps_vals = [crps_sample(b.samples[:, i], b.obs[i])
                 for b in blocks for i in range(b.n)]
    energy_vals = np.concatenate([
        energy_scores(np.stack(raw_blocks[sl]), panel.values[:, sl].T, beta)
        for sl in day_chunks(panel.n_days, raw_blocks[0].size)])
    vario_vals = [variogram_score(b, distance) for b in blocks]
    rmsb, mab = rmsb_mab(blocks)
    summary = {
        "crps_mean": float(np.mean(crps_vals)),
        "energy_score_mean": float(np.mean(energy_vals)),
        "variogram_score_day_mean": float(np.mean(vario_vals)),
        "variogram_score_day_sum": float(np.sum(vario_vals)),
        "rmsb": rmsb,
        "mab": mab,
        "auc": aucs,
        "cross_correlation_center": center_id,
        "n_days": panel.n_days,
        "m": blocks[0].m,
        "rank_bins": bins,
        "beta": beta,
        "seed": seed,
    }
    with open(os.path.join(out, "diagnostics.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _log(f"diagnose: wrote diagnostics for {panel.n_days} days to {out}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--threads", type=int)
    sub.add_argument("--strict", action="store_true", default=None,
                     help="escalate convergence/boundary warnings to exit code 3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raincop",
        description="Spatially coherent probabilistic rainfall modelling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a ground-truth-known fixture")
    _add_common(p)
    for key in ("n_locations", "days"):
        p.add_argument(f"--{key.replace('_', '-')}", type=int, dest=key)
    for key in ("theta_true", "a", "nu", "topo_scale", "p", "mu", "phi",
                "lat_min", "lat_max", "lon_min", "lon_max", "elev_min", "elev_max"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    p.add_argument("--start-date", dest="start_date")

    p = subs.add_parser("fit-marginals", help="fit mixture coefficients by joint likelihood")
    _add_common(p)
    p.add_argument("--locations")
    p.add_argument("--rainfall")
    p.add_argument("--features")
    p.add_argument("--transform", choices=["identity", "standardize"])
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--step", type=float)
    p.add_argument("--rel-tol", type=float, dest="rel_tol")

    p = subs.add_parser("estimate-theta", help="minimum energy-score lengthscale search")
    _add_common(p)
    p.add_argument("--locations")
    p.add_argument("--rainfall")
    p.add_argument("--marginals")
    for key in ("a", "topo_scale", "nu", "beta", "theta_min", "theta_max", "theta_tol"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    p.add_argument("--grid", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--day-subsample", dest="day_subsample")
    p.add_argument("--location-subsample", dest="location_subsample")
    p.add_argument("--refine-day-subsample", dest="refine_day_subsample")

    p = subs.add_parser("simulate", help="sample joint rainfall forecasts")
    _add_common(p)
    p.add_argument("--locations")
    p.add_argument("--rainfall")
    p.add_argument("--marginals")
    p.add_argument("--theta", type=float)
    p.add_argument("--summary", help="summary.json to take theta_hat from")
    for key in ("a", "topo_scale", "nu"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    p.add_argument("--m", type=int)

    p = subs.add_parser("diagnose", help="verification diagnostics of an ensemble")
    _add_common(p)
    p.add_argument("--locations")
    p.add_argument("--rainfall")
    p.add_argument("--marginals")
    p.add_argument("--ensemble")
    for key in ("a", "topo_scale", "beta"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    p.add_argument("--tau-grid", type=int, dest="tau_grid")
    p.add_argument("--q-levels", dest="q_levels")
    p.add_argument("--ecdf-levels", dest="ecdf_levels")
    p.add_argument("--rank-bins", type=int, dest="rank_bins")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = Settings(args)
        raw_strict = settings._raw("strict")
        if isinstance(raw_strict, str):
            strict = raw_strict.strip().lower() in ("1", "true", "yes", "on")
        else:
            strict = bool(raw_strict)
        if args.command == "synth":
            return cmd_synth(settings)
        if args.command == "fit-marginals":
            return cmd_fit_marginals(settings, strict)
        if args.command == "estimate-theta":
            return cmd_estimate_theta(settings, strict)
        if args.command == "simulate":
            return cmd_simulate(settings)
        if args.command == "diagnose":
            return cmd_diagnose(settings)
        parser.error(f"unknown command {args.command}")
    except (IngestError, FileNotFoundError) as exc:
        _log(f"error: {exc}")
        return 2
    except (NotPositiveDefinite, OverflowError, FloatingPointError) as exc:
        _log(f"numerical error: {exc}")
        return 3
    except ValueError as exc:
        _log(f"invalid input: {exc}")
        return 2
    except Exception as exc:  # invariant violations and anything unforeseen
        _log(f"internal error: {type(exc).__name__}: {exc}")
        return 4
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
