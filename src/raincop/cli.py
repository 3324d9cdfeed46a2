"""Command-line front-end: synth, fit-marginals, estimate-theta, simulate, diagnose.

Configuration is a flat key=value file (# comments allowed); command-line
flags override file values, which override built-in defaults. Every
subcommand is deterministic for a fixed seed and inputs: reruns produce
byte-identical output files. --threads (and estimate-theta's
--refine-day-subsample) is accepted for compatibility and changes neither the
outputs nor the work done: no subcommand starts threads of its own.

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
from .diagnostics import (cross_correlation, crps_scores, exceedance_frequencies,
                          median_bias, rank_counts, roc_auc, variogram_scores)
from .estimation import (ScoreConfig, ThetaSearchSpec, day_chunks, energy_scores,
                         estimate_theta, write_profile, write_summary)
from .marginals import (flatten_panel, jglm_fit, make_transform, predict_field,
                        write_coefficients)
from .numerics import NotPositiveDefinite
from .panel import (IngestError, read_features_csv, read_kv, read_marginals_csv,
                    read_rain_csv, write_csv, write_marginals_csv, write_rain_csv)
from .spatial import (MaternParams, build_covariance, build_distance_matrix, check_blend,
                      read_locations, write_locations)
from .synth import SynthSpec, simulate_dataset, write_truth

_SIM_TAG = 21
_RANK_TAG = 20

DEFAULTS = {
    "a": 0.9, "topo_scale": 70.0, "nu": 3.5,
    "beta": 0.5, "m": 30, "seed": 0,
    "theta_min": 200.0, "theta_max": 800.0, "grid": 13,
    "day_subsample": "all", "location_subsample": "all",
    "tau_grid": 1001, "q_levels": "0.5,5.0",
    "ecdf_levels": "0,0.5,1,2,4,8,16,32", "rank_bins": 10,
    "transform": "identity",
    "theta": None,
    "n_locations": 50, "days": 500, "theta_true": 450.0,
    "p": 0.6, "mu": 3.0, "phi": 1.2,
    "lat_min": 49.9, "lat_max": 58.7, "lon_min": -8.2, "lon_max": 1.8,
    "elev_min": 0.0, "elev_max": 800000.0,
    "start_date": "1999-01-01",
}


class Settings:
    """Layered lookup: CLI flag > config file > built-in default.

    A config key must be a default or a flag of the running command; a value
    that does not parse is reported with the flag or config line it came from.
    """

    def __init__(self, args: argparse.Namespace):
        self.cli = vars(args)
        self.file = {}
        if self.cli.get("config"):
            self.config = self.path("config")
            self.file = read_kv(self.config)
            known = (set(DEFAULTS) | set(self.cli)) - {"command"}
            for key, (line_no, _) in self.file.items():
                if key not in known:
                    raise IngestError(f"{self.config}: line {line_no}: unknown key '{key}'")

    def _lookup(self, key):
        """(value, where it came from) of a setting."""
        v = self.cli.get(key)
        if v is not None:
            return v, "--" + key.replace("_", "-")
        if key in self.file:
            line_no, v = self.file[key]
            return v, f"{self.config}: line {line_no}"
        return DEFAULTS.get(key), "default"

    def _raw(self, key):
        return self._lookup(key)[0]

    def _convert(self, key, convert):
        v, source = self._lookup(key)
        try:
            return convert(v)
        except (TypeError, ValueError) as exc:
            raise IngestError(f"{source}: invalid value {v!r} for {key}") from exc

    def str(self, key):
        v = self._raw(key)
        return None if v is None else str(v)

    def float(self, key) -> float:
        return self._convert(key, float)

    def int(self, key) -> int:
        return self._convert(key, int)

    def count_or_all(self, key):
        return self._convert(key, lambda v: "all" if str(v).strip().lower() == "all" else int(v))

    def path(self, key, must_exist=True):
        v = self._raw(key)
        if v is None:
            raise IngestError(f"missing required path setting '{key}'")
        v = str(v)
        if must_exist and not os.path.exists(v):
            raise IngestError(f"{key} file not found: {v}")
        return v

    def check(self, validate, *keys) -> None:
        """Run validate(); a ValueError it raises is reported with where keys were set."""
        try:
            validate()
        except ValueError as exc:
            sources = [self._lookup(key)[1] for key in keys]
            where = ", ".join(s for s in sources if s != "default") or "default"
            raise IngestError(f"{where}: {exc}") from exc

    def floats(self, key):
        return self._convert(key, lambda v: [float(tok) for tok in str(v).split(",")
                                             if tok.strip()])


def _out_dir(settings: Settings) -> str:
    out = settings.str("out") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _blend_settings(settings: Settings):
    """(a, topo_scale), each checked, naming its flag or config line, before any file is read."""
    a, topo_scale = settings.float("a"), settings.float("topo_scale")
    settings.check(lambda: check_blend(a=a), "a")
    settings.check(lambda: check_blend(topo_scale=topo_scale), "topo_scale")
    return a, topo_scale


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
    fit = jglm_fit(features, flatten_panel(panel.values), transform)
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
    beta, m, nu = settings.float("beta"), settings.int("m"), settings.float("nu")
    days, locations = (settings.count_or_all(key)
                       for key in ("day_subsample", "location_subsample"))
    lower, upper = settings.float("theta_min"), settings.float("theta_max")
    grid = settings.int("grid")
    # Each setting is checked, naming its flag or config line, before any file is read.
    settings.check(lambda: ScoreConfig(beta=beta), "beta")
    settings.check(lambda: ScoreConfig(m=m), "m")
    settings.check(lambda: ScoreConfig(day_subsample=days), "day_subsample")
    settings.check(lambda: ScoreConfig(location_subsample=locations), "location_subsample")
    settings.check(lambda: ThetaSearchSpec(lower, upper), "theta_min", "theta_max")
    settings.check(lambda: ThetaSearchSpec(lower, upper, grid), "grid")
    settings.check(lambda: MaternParams(theta=lower, nu=nu), "nu")
    a, topo_scale = _blend_settings(settings)
    cfg = ScoreConfig(beta=beta, m=m, day_subsample=days, location_subsample=locations,
                      seed=settings.int("seed"))
    search = ThetaSearchSpec(lower=lower, upper=upper, grid_size=grid)
    locs = read_locations(settings.path("locations"))
    panel = read_rain_csv(settings.path("rainfall"), locs)
    field = read_marginals_csv(settings.path("marginals"), panel)
    distance = build_distance_matrix(locs, a=a, topo_scale=topo_scale)
    result = estimate_theta(panel.values, field, distance, cfg, search, nu=nu)
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
    m = settings.int("m")
    if m < 1:
        raise IngestError(f"{settings._lookup('m')[1]}: need at least one draw, got {m}")
    theta = None if settings._raw("theta") is None else settings.float("theta")
    if theta is not None:
        settings.check(lambda: MaternParams(theta=theta), "theta")
    nu = settings.float("nu")
    settings.check(lambda: MaternParams(theta=1.0, nu=nu), "nu")  # theta may be read later
    a, topo_scale = _blend_settings(settings)
    locs = read_locations(settings.path("locations"))
    panel = read_rain_csv(settings.path("rainfall"), locs)
    field = read_marginals_csv(settings.path("marginals"), panel)
    if theta is None:
        summary_path = settings.path("summary")
        with open(summary_path, encoding="utf-8") as fh:
            try:
                summary = json.load(fh)
            except ValueError as exc:
                raise IngestError(f"{summary_path}: not valid JSON: {exc}") from exc
        theta = summary.get("theta_hat") if isinstance(summary, dict) else None
        numeric = isinstance(theta, (int, float)) and not isinstance(theta, bool)
        if not (numeric and np.isfinite(theta)):
            raise IngestError(f"{summary_path}: no finite numeric 'theta_hat'")
    theta = float(theta)
    distance = build_distance_matrix(locs, a=a, topo_scale=topo_scale)
    cov = build_covariance(distance, MaternParams(theta=theta, nu=nu))
    seed = settings.int("seed")
    # Settings are all checked: open the output, then draw and write chunk by chunk.
    blocks = (block for sl in day_chunks(panel.n_days, m * panel.n_locations)
              for block in joint_forecast(cov, field, range(panel.n_days)[sl], m, seed,
                                          _SIM_TAG))
    out = _out_dir(settings)
    write_ensemble(os.path.join(out, "ensemble.csv"), panel.day_labels,
                   panel.location_ids, blocks)
    _log(f"simulate: {m} replicates x {panel.n_days} days at theta {theta:g}")
    return 0


def cmd_diagnose(settings: Settings) -> int:
    a, topo_scale = _blend_settings(settings)
    locs = read_locations(settings.path("locations"))
    panel = read_rain_csv(settings.path("rainfall"), locs)
    field = read_marginals_csv(settings.path("marginals"), panel)
    day_labels, ens = read_ensemble(settings.path("ensemble"), locs.ids)  # (days, m, n)
    if list(day_labels) != list(panel.day_labels):
        raise IngestError("ensemble days do not match the rainfall panel")
    days, m, n = ens.shape
    if m < 2:
        raise IngestError("ensemble needs at least two replicates per day")
    obs = panel.values.T  # (days, n)
    distance = build_distance_matrix(locs, a=a, topo_scale=topo_scale)
    seed = settings.int("seed")
    beta = settings.float("beta")

    # Compute every result before writing any file: a rejected setting writes nothing.
    tau_grid = np.linspace(0.0, 1.0, settings.int("tau_grid"))
    curves = {f"{q:g}": roc_auc(field, panel.values, q, tau_grid)
              for q in settings.floats("q_levels")}
    bins = settings.int("rank_bins")
    counts, freq = rank_counts(ens, obs, bins, substream(seed, _RANK_TAG))
    levels = np.array(settings.floats("ecdf_levels"))
    model_freq, obs_freq = exceedance_frequencies(ens, obs, levels)
    center_id, obs_corr = cross_correlation(panel.values, locs)
    pooled = ens.transpose(2, 0, 1).reshape(n, days * m)
    _, model_corr = cross_correlation(pooled, locs, center=center_id)
    crps_vals = crps_scores(ens, obs)
    energy_vals = np.concatenate([energy_scores(ens[sl], obs[sl], beta)
                                  for sl in day_chunks(days, m * n)])
    vario_vals = variogram_scores(ens, obs, distance)
    rmsb, mab = median_bias(ens, obs)
    summary = {
        "crps_mean": float(np.mean(crps_vals)),
        "energy_score_mean": float(np.mean(energy_vals)),
        "variogram_score_day_mean": float(np.mean(vario_vals)),
        "variogram_score_day_sum": float(np.sum(vario_vals)),
        "rmsb": rmsb,
        "mab": mab,
        "auc": {q: None if np.isnan(curve.auc) else curve.auc for q, curve in curves.items()},
        "cross_correlation_center": center_id,
        "n_days": panel.n_days,
        "m": m,
        "rank_bins": bins,
        "beta": beta,
        "seed": seed,
    }

    out = _out_dir(settings)
    for q, curve in curves.items():
        write_csv(os.path.join(out, f"roc_q{q}.csv"), ["tau", "fpr", "tpr"],
                  _float_rows(curve.taus, curve.fpr, curve.tpr))
    write_csv(os.path.join(out, "rank_hist.csv"), ["bin", "count", "frequency"],
              ([str(b), str(int(c)), repr(float(f))]
               for b, (c, f) in enumerate(zip(counts, freq))))
    write_csv(os.path.join(out, "ecdf.csv"), ["level", "model_freq", "obs_freq"],
              _float_rows(levels, model_freq, obs_freq))
    write_csv(os.path.join(out, "crosscorr.csv"), ["id", "observed", "model"],
              ([i, *row] for i, row in zip(locs.ids, _float_rows(obs_corr, model_corr))))
    with open(os.path.join(out, "diagnostics.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _log(f"diagnose: wrote diagnostics for {panel.n_days} days to {out}")
    return 0


def _float_rows(*columns):
    """Rows of repr-formatted cells from equally long float columns."""
    return ([repr(float(v)) for v in row] for row in zip(*columns))


def _add_common(sub: argparse.ArgumentParser, *input_files: str) -> None:
    """Flags every command takes, then one path flag per named input file."""
    for name in input_files:
        sub.add_argument(f"--{name}")
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
    _add_common(p, "locations", "rainfall", "features")
    p.add_argument("--transform", choices=["identity", "standardize"])

    p = subs.add_parser("estimate-theta", help="minimum energy-score lengthscale search")
    _add_common(p, "locations", "rainfall", "marginals")
    for key in ("a", "topo_scale", "nu", "beta", "theta_min", "theta_max"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    p.add_argument("--grid", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--day-subsample", dest="day_subsample")
    p.add_argument("--location-subsample", dest="location_subsample")
    p.add_argument("--refine-day-subsample", dest="refine_day_subsample",
                   help="accepted and ignored")

    p = subs.add_parser("simulate", help="sample joint rainfall forecasts")
    _add_common(p, "locations", "rainfall", "marginals")
    p.add_argument("--theta", type=float)
    p.add_argument("--summary", help="summary.json to take theta_hat from")
    for key in ("a", "topo_scale", "nu"):
        p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    p.add_argument("--m", type=int)

    p = subs.add_parser("diagnose", help="verification diagnostics of an ensemble")
    _add_common(p, "locations", "rainfall", "marginals", "ensemble")
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
