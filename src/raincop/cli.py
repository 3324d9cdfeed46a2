"""Command-line front-end: synth, fit-marginals, estimate-theta, simulate, diagnose.

Configuration is a flat key=value file (# comments allowed); command-line
flags override file values, which override built-in defaults. The parser is
built from one table, COMMANDS, and takes every flag as text: Settings
converts each value the same way whether it came from a flag or a config
line, and names that flag or line when it does not convert, before any input
file is read. Every subcommand is deterministic for a fixed seed and inputs:
reruns under one OpenBLAS thread count (OPENBLAS_NUM_THREADS, by default the
core count; it splits the sums of matrix products) produce byte-identical
files. --threads must be a positive integer and (like estimate-theta's
--refine-day-subsample) changes neither the outputs nor the work done: no
subcommand starts threads of its own, nor sets OpenBLAS's.

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
from .copula import SUBSTREAM_TAGS, joint_forecast, read_ensemble, substream, write_ensemble
from .diagnostics import (CoMoments, cross_correlation, crps_sample, ecdf_curve,
                          rank_histogram, rmsb_mab, roc_auc, variogram_score)
from .estimation import (ScoreConfig, ThetaSearchSpec, energy_score_unbiased, estimate_theta,
                         write_profile, write_summary)
from .marginals import jglm_fit, make_transform, predict_field, write_coefficients
from .numerics import NotPositiveDefinite, day_chunks
from .panel import (IngestError, float_text, read_features_csv, read_kv, read_marginals_csv,
                    read_rain_csv, write_csv, write_json, write_marginals_csv, write_rain_csv)
from .spatial import (DEFAULT_BLEND, DEFAULT_NU, DEFAULT_TOPO_SCALE, MaternParams,
                      build_covariance, build_distance_matrix, check_blend, read_locations,
                      write_locations)
from .synth import SynthSpec, simulate_dataset, write_truth

# SynthSpec field -> the settings it is made of
_SYNTH_FIELDS = {"n_days": ("days",), "blend": ("a",), "lat_range": ("lat_min", "lat_max"),
                 "lon_range": ("lon_min", "lon_max"), "elev_range": ("elev_min", "elev_max"),
                 **{key: (key,) for key in ("n_locations", "theta_true", "nu", "topo_scale",
                                            "p", "mu", "phi", "seed", "start_date")}}

# Each default the library states is read from it: synth's from SynthSpec's fields.
DEFAULTS = {
    **{key: value for name, keys in _SYNTH_FIELDS.items()
       for key, value in zip(keys, getattr(SynthSpec, name) if len(keys) > 1
                             else [getattr(SynthSpec, name)])},
    "a": DEFAULT_BLEND, "topo_scale": DEFAULT_TOPO_SCALE, "nu": DEFAULT_NU,
    "beta": ScoreConfig.beta, "m": ScoreConfig.m, "seed": ScoreConfig.seed,
    "theta_min": 200.0, "theta_max": 800.0, "grid": ThetaSearchSpec.grid_size,
    "tau_grid": 1001, "q_levels": "0.5,5.0",
    "ecdf_levels": "0,0.5,1,2,4,8,16,32", "rank_bins": 10,
    "transform": "identity",
    "theta": None,
}


# How each setting's text is converted; any other setting stays text.
CONVERT = {
    **dict.fromkeys(("seed", "threads", "n_locations", "days", "grid", "m", "tau_grid",
                     "rank_bins"), int),
    **dict.fromkeys(("a", "topo_scale", "nu", "beta", "theta_min", "theta_max", "theta",
                     "theta_true", "p", "mu", "phi", "lat_min", "lat_max", "lon_min",
                     "lon_max", "elev_min", "elev_max"), float),
    **dict.fromkeys(("q_levels", "ecdf_levels"),
                    lambda v: [float(tok) for tok in str(v).split(",") if tok.strip()]),
    "transform": make_transform,
    "strict": lambda v: _BOOLEAN[str(v).strip().lower()],
}
# The words a yes/no setting takes, in any case.
_BOOLEAN = {**dict.fromkeys(("1", "true", "yes", "on"), True),
            **dict.fromkeys(("0", "false", "no", "off"), False)}


class Settings(dict):
    """Every setting of a command, converted: CLI flag > config file > built-in default.

    A config key must be a default or a flag of the running command. Each
    flag of the command is converted as soon as the settings are read, from
    whichever source it came; a value that does not convert is reported with
    that flag or config line. settings[key] is the converted value, None
    where nothing set it.
    """

    def __init__(self, args: argparse.Namespace):
        super().__init__()
        self.cli = vars(args)
        self.file = {}
        if self.cli.get("config"):
            self.config = self.cli["config"]
            if not os.path.exists(self.config):
                raise IngestError(f"config file not found: {self.config}")
            if os.path.isdir(self.config):
                raise IngestError(f"--config: {self.config} is a directory, not a file")
            self.file = read_kv(self.config)
            known = (set(DEFAULTS) | set(self.cli)) - {"command"}
            for key, (line_no, _) in self.file.items():
                if key not in known:
                    raise IngestError(f"{self.config}: line {line_no}: unknown key '{key}'")
        self.update((key, self._convert(key)) for key in self.cli if key != "command")

    def source(self, key):
        """(unconverted value, where it came from) of a setting."""
        v = self.cli.get(key)
        if v is not None:
            return v, "--" + key.replace("_", "-")
        if key in self.file:
            line_no, v = self.file[key]
            return v, f"{self.config}: line {line_no}"
        return DEFAULTS.get(key), "default"

    def _convert(self, key):
        v, where = self.source(key)
        if v is None:
            return None
        try:
            return CONVERT.get(key, str)(v)
        except (TypeError, ValueError, KeyError) as exc:
            raise IngestError(f"{where}: invalid value {v!r} for {key}") from exc

    def path(self, key):
        v = self[key]
        if v is None:
            raise IngestError(f"missing required path setting '{key}'")
        if not os.path.exists(v):
            raise IngestError(f"{key} file not found: {v}")
        if os.path.isdir(v):
            raise IngestError(f"{self.source(key)[1]}: {v} is a directory, not a file")
        return v

    def check(self, validate, *keys) -> None:
        """Run validate(); a ValueError it raises is reported with where keys were set."""
        try:
            validate()
        except ValueError as exc:
            self.reject(exc, *keys)

    def reject(self, message, *keys):
        """Raise IngestError with message, naming where keys were set."""
        sources = [self.source(key)[1] for key in keys]
        where = ", ".join(s for s in sources if s != "default") or "default"
        raise IngestError(f"{where}: {message}")


def _out_dir(settings: Settings) -> str:
    out = settings["out"] or "."
    os.makedirs(out, exist_ok=True)
    return out


def _blend_settings(settings: Settings):
    """(a, topo_scale), each checked, naming its flag or config line, before any file is read."""
    a, topo_scale = settings["a"], settings["topo_scale"]
    settings.check(lambda: check_blend(a=a), "a")
    settings.check(lambda: check_blend(topo_scale=topo_scale), "topo_scale")
    return a, topo_scale


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_synth(settings: Settings) -> int:
    fields = {name: tuple(settings[key] for key in keys) if len(keys) > 1 else settings[keys[0]]
              for name, keys in _SYNTH_FIELDS.items()}
    # Each field alone, then the dates: a rejected value is named before anything is written.
    for name, keys in _SYNTH_FIELDS.items():
        settings.check(lambda: SynthSpec(**{name: fields[name]}), *keys)
    spec = SynthSpec(**fields)
    settings.check(spec.day_labels, "days", "start_date")
    out = _out_dir(settings)
    result = simulate_dataset(spec)
    write_locations(os.path.join(out, "locations.csv"), result.locations)
    write_rain_csv(os.path.join(out, "rainfall.csv"), result.panel)
    write_marginals_csv(os.path.join(out, "marginals.csv"), result.panel, result.field)
    write_truth(os.path.join(out, "truth.json"), spec)
    _log(f"synth: wrote {spec.n_locations} locations x {spec.n_days} days to {out}")
    return 0


def cmd_fit_marginals(settings: Settings) -> int:
    locs = read_locations(settings.path("locations"))
    panel = read_rain_csv(settings.path("rainfall"), locs)
    if settings["features"] is not None:
        features = read_features_csv(settings.path("features"), panel)
    else:
        features = np.empty((panel.values.size, 0))
    fit = jglm_fit(features, panel.values, settings["transform"])
    if not fit.converged:
        _log(f"fit-marginals: did not converge (grad norm {fit.grad_norm:.3e})")
        if settings["strict"]:
            return 3
    field = predict_field(fit.coeffs, fit.transform, features,
                          panel.n_locations, panel.n_days)
    out = _out_dir(settings)
    write_coefficients(os.path.join(out, "coefficients.txt"), fit.coeffs, fit.transform)
    write_marginals_csv(os.path.join(out, "marginals.csv"), panel, field)
    _log(f"fit-marginals: loss {fit.final_loss:.6f} after {fit.n_iter} iterations")
    return 0


def cmd_estimate_theta(settings: Settings) -> int:
    beta, m, nu = settings["beta"], settings["m"], settings["nu"]
    lower, upper = settings["theta_min"], settings["theta_max"]
    grid = settings["grid"]
    # Each setting is checked, naming its flag or config line, before any file is read.
    settings.check(lambda: ScoreConfig(beta=beta), "beta")
    settings.check(lambda: ScoreConfig(m=m), "m")
    settings.check(lambda: ThetaSearchSpec(lower, upper), "theta_min", "theta_max")
    settings.check(lambda: ThetaSearchSpec(lower, upper, grid), "grid")
    settings.check(lambda: MaternParams(theta=lower, nu=nu), "nu")
    a, topo_scale = _blend_settings(settings)
    cfg = ScoreConfig(beta=beta, m=m, seed=settings["seed"])
    search = ThetaSearchSpec(lower=lower, upper=upper, grid_size=grid)
    locs = read_locations(settings.path("locations"))
    panel = read_rain_csv(settings.path("rainfall"), locs)
    field = read_marginals_csv(settings.path("marginals"), panel)
    distance = build_distance_matrix(locs, a=a, topo_scale=topo_scale)
    result = estimate_theta(panel.values, field, distance, cfg, search, nu=nu)
    _log(f"estimate-theta: theta_hat {result.theta_hat:.3f} "
         f"({result.n_evaluations} evaluations, {result.wall_clock_s:.2f}s)")
    if result.boundary:
        _log("estimate-theta: minimizer on search boundary")
        if settings["strict"]:
            return 3
    out = _out_dir(settings)
    write_profile(os.path.join(out, "profile.csv"), result.profile)
    write_summary(os.path.join(out, "summary.json"), result, cfg, search)
    return 0


def cmd_simulate(settings: Settings) -> int:
    m = settings["m"]
    if m < 1:
        settings.reject(f"need at least one draw, got {m}", "m")
    theta = settings["theta"]
    if theta is not None:
        settings.check(lambda: MaternParams(theta=theta), "theta")
    nu = settings["nu"]
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
        try:
            MaternParams(theta=theta, nu=nu)
        except ValueError as exc:
            raise IngestError(f"{summary_path}: theta_hat: {exc}") from exc
    cov = build_covariance(build_distance_matrix(locs, a=a, topo_scale=topo_scale),
                           MaternParams(theta=theta, nu=nu))
    seed = settings["seed"]
    # Settings are all checked: open the output, then draw and write chunk by chunk.
    blocks = (block for sl in day_chunks(panel.n_days, m * panel.n_locations)
              for block in joint_forecast(cov, field, range(panel.n_days)[sl], m, seed,
                                          SUBSTREAM_TAGS["simulate"]))
    out = _out_dir(settings)
    write_ensemble(os.path.join(out, "ensemble.csv"), panel.day_labels,
                   panel.location_ids, blocks)
    _log(f"simulate: {m} replicates x {panel.n_days} days at theta {theta:g}")
    return 0


def cmd_diagnose(settings: Settings) -> int:
    beta, bins = settings["beta"], settings["rank_bins"]
    settings.check(lambda: ScoreConfig(beta=beta), "beta")
    for key, low in (("tau_grid", 2), ("rank_bins", 1)):
        if settings[key] < low:
            settings.reject(f"{key} must be at least {low}, got {settings[key]}", key)
    for key in ("q_levels", "ecdf_levels"):
        if not all(0.0 <= level < np.inf for level in settings[key]):
            settings.reject(f"{key} must be nonnegative and finite, got {settings[key]}", key)
    names = [f"{q:g}" for q in settings["q_levels"]]  # of the ROC files and the auc keys
    if len(set(names)) < len(names):
        settings.reject(f"q_levels must differ in 6 significant digits, got "
                        f"{settings['q_levels']}", "q_levels")
    a, topo_scale = _blend_settings(settings)
    locs = read_locations(settings.path("locations"))
    panel = read_rain_csv(settings.path("rainfall"), locs)
    field = read_marginals_csv(settings.path("marginals"), panel)
    ensemble_path = settings.path("ensemble")
    obs = panel.values  # (days, n)
    days, n = obs.shape
    seed, levels = settings["seed"], np.array(settings["ecdf_levels"])
    crps_vals, energy_vals, vario_vals = np.empty((days, n)), np.empty(days), np.empty(days)
    rng = substream(seed, SUBSTREAM_TAGS["rank_ties"])
    # the running totals of the pooled scores, added to a day chunk at a time
    rank_counts = np.zeros(bins, dtype=int)
    ecdf_counts = np.zeros((2, levels.size + 1), dtype=int)
    bias_sums, moments = np.zeros(3), CoMoments()
    m, error = 0, None
    for sl, ens in read_ensemble(ensemble_path, panel):  # (k, m, n) samples of days sl
        if not m:  # the first chunk fixes m; what it rejects waits for the reader's errors
            m = ens.shape[1]
            try:
                if bins > m + 1:
                    settings.reject(f"rank_bins must be at most m + 1 = {m + 1}, got {bins}",
                                    "rank_bins")
                distance = build_distance_matrix(locs, a=a, topo_scale=topo_scale)
                center_id, obs_corr = cross_correlation(obs, locs)
            except ValueError as exc:
                error = exc
        if m < 2 or error is not None:
            continue
        y = obs[sl]
        crps_vals[sl] = crps_sample(ens, y)
        energy_vals[sl] = energy_score_unbiased(ens, y, beta)
        vario_vals[sl] = variogram_score(ens, y, distance)
        counts, freq = rank_histogram(ens, y, bins, rng, counts=rank_counts)
        model_freq, obs_freq = ecdf_curve(ens, y, levels, counts=ecdf_counts)
        rmsb, mab = rmsb_mab(ens, y, sums=bias_sums)
        model_corr = cross_correlation(ens.reshape(-1, n), locs, moments)[1]
    if m < 2:
        raise IngestError(f"{ensemble_path}: ensemble needs at least two replicates per day")
    if error is not None:
        raise error
    # Compute every result before writing any file: a rejected setting writes nothing.
    tau_grid = np.linspace(0.0, 1.0, settings["tau_grid"])
    curves = {name: roc_auc(field, obs, q, tau_grid)
              for name, q in zip(names, settings["q_levels"])}
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
                  map(float_text, zip(curve.taus, curve.fpr, curve.tpr)))
    write_csv(os.path.join(out, "rank_hist.csv"), ["bin", "count", "frequency"],
              ([str(b), str(int(c)), *float_text([f])]
               for b, (c, f) in enumerate(zip(counts, freq))))
    write_csv(os.path.join(out, "ecdf.csv"), ["level", "model_freq", "obs_freq"],
              map(float_text, zip(levels, model_freq, obs_freq)))
    write_csv(os.path.join(out, "crosscorr.csv"), ["id", "observed", "model"],
              ([i, *float_text(row)] for i, row in zip(locs.ids, zip(obs_corr, model_corr))))
    write_json(os.path.join(out, "diagnostics.json"), summary)
    _log(f"diagnose: wrote diagnostics for {panel.n_days} days to {out}")
    return 0


# command -> (help, input files, setting keys): each is a flag --key-name taken as
# text, converted by Settings. Every command also takes the _COMMON flags.
COMMANDS = {
    "synth": ("generate a ground-truth-known fixture", (),
              ("n_locations", "days", "theta_true", "a", "nu", "topo_scale", "p", "mu", "phi",
               "lat_min", "lat_max", "lon_min", "lon_max", "elev_min", "elev_max",
               "start_date")),
    "fit-marginals": ("fit mixture coefficients by joint likelihood",
                      ("locations", "rainfall", "features"), ("transform",)),
    "estimate-theta": ("minimum energy-score lengthscale search",
                       ("locations", "rainfall", "marginals"),
                       ("a", "topo_scale", "nu", "beta", "theta_min", "theta_max", "grid", "m",
                        "refine_day_subsample")),
    "simulate": ("sample joint rainfall forecasts", ("locations", "rainfall", "marginals"),
                 ("theta", "summary", "a", "topo_scale", "nu", "m")),
    "diagnose": ("verification diagnostics of an ensemble",
                 ("locations", "rainfall", "marginals", "ensemble"),
                 ("a", "topo_scale", "beta", "tau_grid", "q_levels", "ecdf_levels",
                  "rank_bins")),
}
_COMMON = ("config", "seed", "out", "threads", "strict")
_HELP = {
    "config": "flat key=value configuration file",
    "out": "output directory",
    "strict": "escalate convergence/boundary warnings to exit code 3",
    "summary": "summary.json to take theta_hat from",
    "refine_day_subsample": "accepted and ignored",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raincop",
        description="Spatially coherent probabilistic rainfall modelling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, input_files, keys) in COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        for key in (*input_files, *_COMMON, *keys):
            flag = "--" + key.replace("_", "-")
            if key == "strict":
                p.add_argument(flag, action="store_true", default=None, help=_HELP[key])
            else:
                p.add_argument(flag, dest=key, help=_HELP.get(key))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = {"synth": cmd_synth, "fit-marginals": cmd_fit_marginals,
               "estimate-theta": cmd_estimate_theta, "simulate": cmd_simulate,
               "diagnose": cmd_diagnose}[args.command]
        settings = Settings(args)
        if settings["seed"] < 0:  # every command takes --seed and --threads
            settings.reject(f"seed must be nonnegative, got {settings['seed']}", "seed")
        if settings["threads"] is not None and settings["threads"] < 1:
            settings.reject(f"threads must be at least 1, got {settings['threads']}", "threads")
        return run(settings)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
