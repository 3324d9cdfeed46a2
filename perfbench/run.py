"""raincop pipeline benchmark: every CLI stage timed end to end, one traced run per layer.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 54 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 54 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout; raincop is imported from its ``src``. Each
stage is ``raincop <stage>`` in a fresh process reading the files the previous
stage wrote (see workloads.py and README.md). A run sets the inputs up five
times, then repeats whole rounds (fit-marginals, estimate-theta, simulate,
diagnose, each after one run of the fixed calibration job calibrate.py, then
the ingestion probe) until the next round would end past ``--seconds`` (at
least one round). With ``--trace 1`` one more round runs
under trace_stage.py and the per-layer metrics are reported instead of the
end-to-end ones. Outputs are then checked (checks.py) and the last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import checks
from workloads import (BETA, BLEND, GRID, LONG_COEFFS, STAGES, THETA_TRUE, TOPO_SCALE,
                       WORKLOADS, Workload, cli, setup_args, stage_args, tiny)

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "trace_stage.py")
MAKE_LONG = os.path.join(HERE, "make_long.py")
LAUNCHER = os.path.join(HERE, "launcher.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
SETUP_REPS = 5

# The ingestion probe: estimate-theta on a fixed fixture whose rainfall holds
# one `inf` cell must exit 2. Its inputs do not depend on --seed.
PROBE_SEED = 0
PROBE_SHAPE = (8, 40)
PROBE_FAULT = ("estimate-theta accepted a rainfall cell of inf (exit {rc}, expected 2): "
               "read_rain_csv and RainPanel reject only NaN and negative values, and "
               "obs_to_gaussian clamps the cell with a warning")

# pipeline_rel is the four stages' wall time over the calibration jobs' wall
# time in the same round: the host's speed drifts by up to 1.5x over tens of
# seconds, and the ratio cancels that drift where raw seconds cannot. The raw
# stage and pipeline seconds are per-layer metrics (no bound).
END_TO_END = [
    ("setup_s", "s"), ("pipeline_rel", "x"), ("estimate_rss_mb", "MB"),
    ("simulate_rss_mb", "MB"), ("diagnose_rss_mb", "MB"), ("ensemble_mb", "MB"),
]

# Per-layer metrics: `<span>_s` is the summed self time of that span over the
# four traced stages (synth.simulate_dataset: over the traced set-up), except
# estimation.estimate_theta_s, which is inclusive. panel.read_long_csv_s covers
# read_marginals_csv and read_features_csv, which share one long-CSV parser.
SELF_TIMES = [
    "cli.import", "panel.read_rain_csv", "panel.read_marginals_csv",
    "panel.write_marginals_csv", "spatial.build_distance_matrix",
    "spatial.build_covariance", "spatial.matern_kernel", "spatial.repaired_correlation",
    "numerics.spd_factorize", "marginals.jglm_fit", "marginals.predict_field",
    "marginals.mixture_cdf", "marginals.mixture_quantile", "copula.substream",
    "copula.censor", "copula.obs_to_gaussian", "copula.joint_forecast",
    "copula.write_ensemble", "copula.read_ensemble", "estimation.energy_score_unbiased",
    "diagnostics.crps_sample", "diagnostics.variogram_score", "diagnostics.roc_auc",
    "diagnostics.rank_histogram", "diagnostics.ecdf_curve",
    "diagnostics.cross_correlation", "diagnostics.rmsb_mab",
]
COUNTS = [
    "panel.bytes_read", "panel.bytes_written", "spatial.build_covariance_calls",
    "numerics.spd_factorize_calls", "numerics.jittered_factor_calls",
    "marginals.jglm_fit_iters", "marginals.mixture_quantile_cells",
    "copula.substream_calls", "copula.censor_calls", "copula.obs_to_gaussian_calls",
    "copula.joint_forecast_calls", "copula.ensemble_bytes_written",
    "estimation.energy_score_unbiased_calls", "estimation.objective_evals",
    "diagnostics.crps_sample_calls", "diagnostics.variogram_score_calls",
]
PER_LAYER = (
    [(f"cli.{stage}.wall_s", "s") for stage in STAGES]
    + [("pipeline.wall_s", "s"), ("calibrate.wall_s", "s")]
    + [(f"{name}_s", "s") for name in SELF_TIMES]
    + [(f"cli.{stage}.self_s", "s") for stage in STAGES]
    + [("synth.simulate_dataset_s", "s"), ("panel.read_long_csv_s", "s"),
       ("estimation.estimate_theta_s", "s"), ("estimation.estimate_theta.self_s", "s")]
    + [(name, "count") for name in COUNTS]
    + [(f"trace.{stage}.overhead_s", "s") for stage in STAGES]
    + [("trace.overhead_s", "s")]
)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed set-up)."""


@dataclass
class Proc:
    rc: int
    start: float
    end: float
    rss_mb: float
    log: str

    @property
    def wall(self) -> float:
        return self.end - self.start


class Launcher:
    """Runs commands through launcher.py; see there for why."""

    def __init__(self, env):
        # A session of its own, so an aborted run can stop the launcher and the
        # command it is running together.
        self.proc = subprocess.Popen([sys.executable, LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, text=True,
                                     start_new_session=True)

    def run(self, argv, log: str) -> Proc:
        self.proc.stdin.write(json.dumps({"argv": [str(a) for a in argv], "log": log}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the command launcher exited")
        r = json.loads(reply)
        return Proc(r["rc"], r["start"], r["end"], r["rss_kb"] * 1024 / 1e6, log)

    def close(self, abort: bool = False) -> None:
        if abort:
            self.kill()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def log_tail(proc: Proc, lines: int = 3) -> str:
    with open(proc.log, encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def digest_dir(path: str) -> dict:
    out = {}
    for base, _, files in os.walk(path):
        for name in sorted(files):
            full = os.path.join(base, name)
            h = hashlib.sha256()
            with open(full, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[os.path.relpath(full, path)] = h.hexdigest()
    return out


def median_and_tail(values) -> str:
    """Median and sample count; with 40 or more samples, the highest percentile
    that still has at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} over {n} sample(s)"
    if n >= 40:
        pct = math.floor(100 * (n - 10) / n)
        text += f", p{pct} {np.percentile(values, pct):.6g}"
    return text + " [" + " ".join(f"{v:.4g}" for v in values) + "]"


class Bench:
    """One invocation: set-up, timed rounds, optional traced round, checks."""

    def __init__(self, root: str, w: Workload, seed: int, seconds: float, trace: bool):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.work = os.path.join(root, ".perfbench_work", w.name)
        self.logs = os.path.join(self.work, "logs")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.errors: list = []
        self.attempted = 0
        self.failed = 0
        self.faults: list = []
        self.notes: list = []

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def proc(self, name: str, argv) -> Proc:
        return self.launcher.run(argv, os.path.join(self.logs, name + ".log"))

    # -- inputs --------------------------------------------------------------

    def setup_argv(self, out: str, spans: str | None = None) -> list:
        args = [str(a) for a in setup_args(self.w, out, self.seed)]
        if spans is not None:
            target = "make_long" if self.w.features else "cli"
            return [sys.executable, TRACER, spans, target, *args]
        if self.w.features:
            return [sys.executable, MAKE_LONG, *args]
        return cli(*args)

    def setup(self) -> tuple:
        """Write the inputs SETUP_REPS times; their median time is setup_s."""
        times, digests = [], []
        for k in range(SETUP_REPS):
            out = self.path(f"setup{k}")
            p = self.proc(f"setup{k}", self.setup_argv(out))
            if p.rc != 0:
                raise BenchError(f"set-up exited {p.rc}: {log_tail(p)}")
            times.append(p.wall)
            digests.append(digest_dir(out))
        if any(d != digests[0] for d in digests):
            self.errors.append("determinism: set-up outputs differ between repetitions")
        return self.path("setup0"), times

    def make_probe(self) -> list:
        out = self.path("probe")
        p = self.proc("probe_setup", cli("synth", "--out", out, "--seed", PROBE_SEED,
                                         "--n-locations", PROBE_SHAPE[0],
                                         "--days", PROBE_SHAPE[1]))
        if p.rc != 0:
            raise BenchError(f"probe set-up exited {p.rc}: {log_tail(p)}")
        with open(os.path.join(out, "rainfall.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[1].split(",")
        cells[1] = "inf"
        lines[1] = ",".join(cells)
        bad = os.path.join(out, "rainfall_inf.csv")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return cli("estimate-theta", "--locations", os.path.join(out, "locations.csv"),
                   "--rainfall", bad, "--marginals", os.path.join(out, "marginals.csv"),
                   "--grid", 3, "--m", 2, "--refine-day-subsample", 4, "--seed", PROBE_SEED,
                   "--threads", 1, "--out", os.path.join(out, "est"))

    # -- rounds --------------------------------------------------------------

    def run_round(self, inputs: str, name: str, probe_argv, traced: bool) -> tuple:
        """The four stages, then the probe: five attempted operations. Untraced,
        each stage follows one calibration job. Returns the stages' and the
        calibration jobs' Procs by stage."""
        out = self.path(name)
        args = stage_args(self.w, inputs, out, self.seed)
        procs, cals = {}, {}
        for stage in STAGES:
            if traced:
                argv = [sys.executable, TRACER, self.path("spans", f"{stage}.npz"), "cli",
                        *(str(a) for a in args[stage])]
            else:
                argv = cli(*args[stage])
                cal = cals[stage] = self.proc(f"{name}.{stage}.calibrate",
                                              [sys.executable, CALIBRATE])
                if cal.rc != 0:
                    raise BenchError(f"calibrate.py exited {cal.rc}: {log_tail(cal)}")
            p = self.proc(f"{name}.{stage}", argv)
            procs[stage] = p
            if p.rc != 0:
                self.errors.append(f"{stage} exited {p.rc} in {name}: {log_tail(p)}")
                break
        self.attempted += len(STAGES)
        self.failed += len(STAGES) - sum(p.rc == 0 for p in procs.values())

        probe = self.proc(f"{name}.probe", probe_argv)
        self.attempted += 1
        if probe.rc != 2:
            self.failed += 1
            fault = PROBE_FAULT.format(rc=probe.rc)
            if fault not in self.faults:
                self.faults.append(fault)
        return procs, cals

    def execute(self) -> dict:
        if os.path.isdir(self.work):
            shutil.rmtree(self.work)
        os.makedirs(self.logs)
        os.makedirs(self.path("spans"))
        self.launcher = Launcher(self.env)
        done = False
        try:
            result = self.measure()
            done = True
            return result
        finally:
            self.launcher.close(abort=not done)

    def measure(self) -> dict:
        inputs, setup_times = self.setup()
        probe_argv = self.make_probe()

        rounds, digests = [], []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            name = f"round{len(rounds)}"
            procs, cals = self.run_round(inputs, name, probe_argv, traced=False)
            if len(procs) < len(STAGES) or procs["diagnose"].rc != 0:
                break
            rounds.append((procs, cals))
            digests.append(digest_dir(self.path(name)))
            if len(rounds) > 1:
                shutil.rmtree(self.path(f"round{len(rounds) - 2}"))
            last = time.perf_counter() - r0
            if time.perf_counter() - t0 + (2 if self.trace else 1) * last > self.seconds:
                break
        if not rounds:
            return self.result({})
        kept = self.kept = self.path(f"round{len(rounds) - 1}")
        self.inputs = inputs

        traced = None
        if self.trace:
            traced, _ = self.run_round(inputs, "traced", probe_argv, traced=True)
            if len(traced) == len(STAGES) and traced["diagnose"].rc == 0:
                digests.append(digest_dir(self.path("traced")))
            else:
                traced = None

        if any(d != digests[0] for d in digests):
            self.errors.append("determinism: output files differ between rounds")
        findings = self.check_outputs(inputs, kept)
        self.errors += findings.errors
        self.notes += findings.notes
        if self.w.name == "long":
            self.check_threads(inputs, kept)

        if self.trace:
            if traced is None:
                return self.result({})
            return self.result(self.layer_metrics(rounds, traced))
        return self.result(self.end_to_end(setup_times, rounds, kept))

    # -- checks (never timed) ------------------------------------------------

    def check_outputs(self, inputs: str, out: str) -> checks.Findings:
        w = self.w
        f = checks.Findings()
        fit = os.path.join(out, "fit")
        if w.features:
            checks.check_fit_coefficients(inputs, fit, LONG_COEFFS, f)
        else:
            checks.check_fit_intercept(inputs, fit, f)
        checks.check_estimate(os.path.join(out, "est"), GRID, THETA_TRUE, f)
        ensemble = checks.read_ensemble(os.path.join(out, "sim", "ensemble.csv"),
                                        w.n_days, w.sim_m)
        checks.check_simulate(ensemble, fit, w.n_days, w.sim_m, f)
        checks.check_diagnose(ensemble, inputs, os.path.join(out, "diag"), w.n_days,
                              BLEND, TOPO_SCALE, BETA, f)
        return f

    def check_threads(self, inputs: str, out: str) -> None:
        """estimate-theta --threads 2 must write the same bytes as --threads 1."""
        args = stage_args(self.w, inputs, out, self.seed)["estimate"]
        est2 = self.path("threads2")
        args = args[:args.index("--out")] + ["--out", est2, "--seed", self.seed,
                                              "--threads", 2]
        p = self.proc("threads2", cli(*args))
        if p.rc != 0:
            self.errors.append(f"threads: estimate-theta --threads 2 exited {p.rc}")
            return
        self.notes.append(f"threads: estimate-theta --threads 2 took {p.wall:.2f} s "
                          f"(untimed check)")
        one = digest_dir(os.path.join(out, "est"))
        if digest_dir(est2) != one:
            self.errors.append("determinism: estimate-theta --threads 2 output differs "
                               "from --threads 1")

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, setup_times, rounds, kept) -> dict:
        samples = {"setup_s": setup_times}
        samples["pipeline_rel"] = [sum(r[s].wall for s in STAGES) / sum(c[s].wall for s in STAGES)
                                   for r, c in rounds]
        for stage in ("estimate", "simulate", "diagnose"):
            samples[f"{stage}_rss_mb"] = [r[stage].rss_mb for r, _ in rounds]
        samples["ensemble_mb"] = [os.path.getsize(os.path.join(kept, "sim", "ensemble.csv"))
                                  / 1e6]
        # Raw seconds, printed for reading but not reported (see END_TO_END).
        for name, values in wall_samples(rounds).items():
            print(f"{self.w.name:5s} {name:18s} s   {median_and_tail(values)}")
        metrics = {}
        for name, unit in END_TO_END:
            values = samples[name]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"{self.w.name:5s} {name:18s} {unit:3s} {median_and_tail(values)}")
        return metrics

    def layer_metrics(self, rounds, traced) -> dict:
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        counts = defaultdict(int)
        for stage in STAGES:
            self.add_spans(self.path("spans", f"{stage}.npz"), traced[stage],
                           stage, self_s, inclusive, counts)
        spans = self.path("spans", "setup.npz")
        p = self.proc("traced.setup", self.setup_argv(self.path("traced_setup"), spans))
        if p.rc != 0:
            self.errors.append(f"traced set-up exited {p.rc}: {log_tail(p)}")
        else:
            setup_self = defaultdict(float)
            self.add_spans(spans, p, "setup", setup_self, defaultdict(float),
                           defaultdict(int))
            self_s["synth.simulate_dataset"] = setup_self["synth.simulate_dataset"]

        values = {name: statistics.median(v) for name, v in wall_samples(rounds).items()}
        values.update({f"{name}_s": self_s[name] for name in SELF_TIMES})
        values.update({f"cli.{stage}.self_s": self_s[f"cli.{stage}"] for stage in STAGES})
        values["synth.simulate_dataset_s"] = self_s["synth.simulate_dataset"]
        values["panel.read_long_csv_s"] = (self_s["panel.read_marginals_csv"]
                                           + self_s["panel.read_features_csv"])
        values["estimation.estimate_theta_s"] = inclusive["estimation.estimate_theta"]
        values["estimation.estimate_theta.self_s"] = self_s["estimation.estimate_theta"]
        values.update({name: counts[name] for name in COUNTS})
        for stage in STAGES:
            values[f"trace.{stage}.overhead_s"] = (traced[stage].wall
                                                   - values[f"cli.{stage}.wall_s"])
        values["trace.overhead_s"] = sum(values[f"trace.{s}.overhead_s"] for s in STAGES)
        metrics = {}
        for name, unit in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{self.w.name:5s} {name:38s} {unit:5s} {values[name]:.6g}")
        return metrics

    def add_spans(self, path, proc: Proc, stage, self_s, inclusive, counts) -> None:
        """Fold one traced process's spans into per-name self and inclusive times.

        The process's wall time is the root span: its self time (cli.<stage>) is
        the wall time minus its top-level spans, so all self times of the stage
        add up to its traced wall time.
        """
        z = np.load(path)
        names = list(z["names"])
        end = np.where(z["end"] == 0.0, proc.end, z["end"])  # trace.flush is closed here
        start, parent = z["start"], z["parent"]
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        root_self = proc.wall - dur[~nested].sum()
        if (start.size and (start.min() < proc.start or end.max() > proc.end)) \
                or np.any(own < -1e-9) or root_self < -1e-9:
            self.errors.append(f"trace: {stage} spans do not nest inside the process")
        if abs(own.sum() + root_self - proc.wall) > 1e-6:
            self.errors.append(f"trace: {stage} self times do not add up to its wall time")
        self_s[f"cli.{stage}"] += root_self
        ids = z["span_name"]
        for k, name in enumerate(names):
            mask = ids == k
            self_s[name] += float(own[mask].sum())
            inclusive[name] += float(dur[mask].sum())
        for key, value in zip(z["counter_keys"], z["counter_values"]):
            counts[str(key)] += int(value)

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.errors and bool(metrics), "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def wall_samples(rounds) -> dict:
    """Raw wall seconds per round: each stage, the four together, the calibration jobs."""
    samples = {f"cli.{stage}.wall_s": [r[stage].wall for r, _ in rounds] for stage in STAGES}
    samples["pipeline.wall_s"] = [sum(r[s].wall for s in STAGES) for r, _ in rounds]
    samples["calibrate.wall_s"] = [c[s].wall for _, c in rounds for s in STAGES]
    return samples


def run_workload(root, w, seed, seconds, trace) -> tuple:
    bench = Bench(root, w, seed, seconds, trace)
    res = bench.execute()
    report(bench, res)
    return res, bench


def report(bench: Bench, res: dict) -> None:
    w = bench.w
    for note in bench.notes:
        print(f"{w.name:5s} {note}")
    for fault in bench.faults:
        print(f"{w.name:5s} failed operation: {fault}")
    for err in bench.errors:
        print(f"{w.name:5s} CHECK FAILED: {err}")
    print(f"{w.name:5s} attempted {res['attempted']} operations, {res['failed']} failed; "
          f"outputs {'correct' if res['correct'] else 'NOT correct'}")


# Corruptions of one round's outputs that the checks must catch (self-check):
# (file, pattern, replacement), applied to the first match.
MUTATIONS = [
    ("fit/coefficients.txt", r"beta0=(.*)", lambda m: f"beta0={float(m[1]) + 0.01!r}"),
    ("est/profile.csv", r"\n200\.0,", lambda m: "\n200.00000000001,"),
    ("sim/ensemble.csv", r"(?m)^([^,\n]*,[^,\n]*,(?:[^,\n]*,)*?)0(?=[,\n])",
     lambda m: m[1] + "0.0"),
    ("diag/diagnostics.json", r'"crps_mean": (.*),',
     lambda m: f'"crps_mean": {float(m[1]) * (1 + 1e-6)!r},'),
    ("diag/rank_hist.csv", r"\n0,(\d+),", lambda m: f"\n0,{int(m[1]) + 1},"),
]


def undetected_mutations(bench: Bench) -> list:
    """Corrupt a copy of the last round's outputs in each way; return those no check caught."""
    missed = []
    for rel, pattern, repl in MUTATIONS:
        mutant = bench.path("mutant")
        shutil.rmtree(mutant, ignore_errors=True)
        shutil.copytree(bench.kept, mutant)
        target = os.path.join(mutant, rel)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        corrupted = re.sub(pattern, repl, text, count=1)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(corrupted)
        if corrupted == text or not bench.check_outputs(bench.inputs, mutant).errors:
            missed.append(rel)
    return missed


def self_check(root: str) -> int:
    """Every workload's pipeline, traced and untraced, and every check on tiny inputs;
    each check must also reject a corrupted copy of the outputs it passed."""
    ok = True
    for w in WORKLOADS.values():
        for trace in (False, True):
            res, bench = run_workload(root, tiny(w), 0, 0.0, trace)
            names = {n for n, _ in (PER_LAYER if trace else END_TO_END)}
            if not res["correct"] or set(res["metrics"]) != names:
                ok = False
            elif not trace:
                missed = undetected_mutations(bench)
                if missed:
                    print(f"{w.name:5s} CHECKS MISSED corrupted {', '.join(missed)}")
                    ok = False
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if ([(m["name"], m["unit"]) for m in spec["end_to_end"]] != END_TO_END
            or [(m["name"], m["unit"]) for m in spec["per_layer"]] != PER_LAYER
            or [x["name"] for x in spec["workloads"]] != list(WORKLOADS)):
        print("BENCHMARK.json does not list the metrics and workloads run.py reports")
        ok = False
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup in finally

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "raincop", "cli.py")):
        print(f"error: no raincop sources under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check(root)
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(root, WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace))[0] for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
