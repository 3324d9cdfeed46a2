"""Run one raincop stage in this process with spans around each layer's public calls.

    PYTHONPATH=src python3 perfbench/trace_stage.py SPANS.npz cli <raincop arguments>
    PYTHONPATH=src python3 perfbench/trace_stage.py SPANS.npz make_long <make_long.py arguments>

Before the stage starts, every function in LAYERS is replaced by a timing
wrapper at each raincop module attribute that holds it (``raincop.cli.joint_forecast``,
``raincop.estimation.build_covariance``, ``raincop.spatial.repaired_correlation``, ...),
so calls made through any binding are recorded. A span holds its name, start,
end (``time.perf_counter``, the system-wide monotonic clock, so the parent
process can nest the spans inside the stage's wall time) and the index of the
enclosing span. Spans and counters stay in memory and are written to
SPANS.npz when the stage returns; the exit code is the stage's.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np


def _file_size(counter):
    return lambda args, result: (counter, os.path.getsize(args[0]))


# (span name, module, function, hook). The span name is the per-layer metric
# prefix; a hook maps a call's arguments and result to (counter, amount).
LAYERS = [
    ("synth.simulate_dataset", "raincop.synth", "simulate_dataset", None),
    ("panel.read_rain_csv", "raincop.panel", "read_rain_csv", _file_size("panel.bytes_read")),
    ("panel.read_marginals_csv", "raincop.panel", "read_marginals_csv",
     _file_size("panel.bytes_read")),
    ("panel.read_features_csv", "raincop.panel", "read_features_csv",
     _file_size("panel.bytes_read")),
    ("panel.write_marginals_csv", "raincop.panel", "write_marginals_csv",
     _file_size("panel.bytes_written")),
    ("spatial.build_distance_matrix", "raincop.spatial", "build_distance_matrix", None),
    ("spatial.build_covariance", "raincop.spatial", "build_covariance", None),
    ("spatial.matern_kernel", "raincop.spatial", "matern_kernel", None),
    ("spatial.repaired_correlation", "raincop.spatial", "repaired_correlation", None),
    ("numerics.spd_factorize", "raincop.numerics", "spd_factorize",
     lambda args, result: ("numerics.jittered_factor_calls", result.jitter_applied > 0.0)),
    ("marginals.jglm_fit", "raincop.marginals", "jglm_fit",
     lambda args, result: ("marginals.jglm_fit_iters", result.n_iter)),
    ("marginals.predict_field", "raincop.marginals", "predict_field", None),
    ("marginals.mixture_cdf", "raincop.marginals", "mixture_cdf", None),
    ("marginals.mixture_quantile", "raincop.marginals", "mixture_quantile",
     lambda args, result: ("marginals.mixture_quantile_cells", np.broadcast(*args).size)),
    ("copula.substream", "raincop.copula", "substream", None),
    ("copula.censor", "raincop.copula", "censor", None),
    ("copula.obs_to_gaussian", "raincop.copula", "obs_to_gaussian", None),
    ("copula.joint_forecast", "raincop.copula", "joint_forecast", None),
    ("copula.write_ensemble", "raincop.copula", "write_ensemble",
     _file_size("copula.ensemble_bytes_written")),
    ("copula.read_ensemble", "raincop.copula", "read_ensemble", None),
    ("estimation.estimate_theta", "raincop.estimation", "estimate_theta",
     lambda args, result: ("estimation.objective_evals", result.n_evaluations)),
    ("estimation.energy_score_unbiased", "raincop.estimation", "energy_score_unbiased", None),
    ("diagnostics.crps_sample", "raincop.diagnostics", "crps_sample", None),
    ("diagnostics.variogram_score", "raincop.diagnostics", "variogram_score", None),
    ("diagnostics.roc_auc", "raincop.diagnostics", "roc_auc", None),
    ("diagnostics.rank_histogram", "raincop.diagnostics", "rank_histogram", None),
    ("diagnostics.ecdf_curve", "raincop.diagnostics", "ecdf_curve", None),
    ("diagnostics.cross_correlation", "raincop.diagnostics", "cross_correlation", None),
    ("diagnostics.rmsb_mab", "raincop.diagnostics", "rmsb_mab", None),
]


class Recorder:
    """Spans as parallel lists plus named counters, kept until the stage ends."""

    def __init__(self):
        self.names: list = []
        self.name_index: dict = {}
        self.span_name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.stack: list = []
        self.counters: dict = {}

    def open(self, name: str) -> int:
        k = self.name_index.get(name)
        if k is None:
            k = self.name_index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(k)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 span_name=np.array(self.span_name, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 counter_keys=np.array(list(self.counters), dtype=str),
                 counter_values=np.array(list(self.counters.values()), dtype=np.int64))


def _wrap(rec: Recorder, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        rec.count(name + "_calls", 1)
        if hook is not None:
            rec.count(*hook(args, result))
        return result
    return traced


def install(rec: Recorder) -> None:
    """Replace each layer function at every raincop module attribute bound to it."""
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "raincop" or key.startswith("raincop."))]
    for name, module, attr, hook in LAYERS:
        original = getattr(importlib.import_module(module), attr)
        traced = _wrap(rec, name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


def main(argv) -> int:
    spans_path, target, args = argv[0], argv[1], argv[2:]
    rec = Recorder()
    idx = rec.open("cli.import")
    if target == "cli":
        import raincop.cli
        run = raincop.cli.main
    else:
        import raincop  # noqa: F401  (loads every module before the wrappers go in)
        run = importlib.import_module(target).main
    rec.close(idx)
    install(rec)
    try:
        rc = run(args)
    finally:
        # Left open: the parent closes it at the process's end, so writing the
        # spans and interpreter teardown count as tracing cost.
        rec.open("trace.flush")
        rec.save(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
