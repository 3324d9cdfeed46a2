"""The layers perfbench/trace_stage.py wraps still exist in the program, and run.

The tracer finds each layer by module and function name; a function that is
moved or renamed, or that no stage calls any more, would read 0 in every
traced benchmark run instead of failing.
"""

import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACE_STAGE = ROOT / "perfbench" / "trace_stage.py"


def layers():
    """trace_stage.LAYERS, loaded from the file as it is."""
    spec = importlib.util.spec_from_file_location("trace_stage", TRACE_STAGE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_layer_resolves():
    for name, module, attr, _ in layers():
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{name}: {module}.{attr} is gone"


def test_file_size_hooks_get_the_path_first():
    sized = [(name, module, attr) for name, module, attr, hook in layers()
             if hook is not None and hook.__qualname__.startswith("_file_size.")]
    assert sized  # the readers and writers whose bytes are counted
    for name, module, attr in sized:
        fn = getattr(importlib.import_module(module), attr)
        first = next(iter(inspect.signature(fn).parameters))
        assert first == "path", f"{name}: the hook reads args[0], but it is {first!r}"


def test_every_layer_is_called(tmp_path):
    """A tiny long-workload pipeline, traced stage by stage, calls every layer."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    inp, out = tmp_path / "in", tmp_path / "out"
    loc, rain, marg = inp / "locations.csv", inp / "rainfall.csv", out / "fit" / "marginals.csv"
    common = ["--seed", "1", "--threads", "1"]
    stages = {
        "make_long": ["--out", inp, "--seed", "1", "--n-locations", "6", "--days", "60"],
        "fit": ["fit-marginals", "--locations", loc, "--rainfall", rain,
                "--features", inp / "features.csv", "--transform", "standardize",
                "--out", out / "fit", *common],
        "estimate": ["estimate-theta", "--locations", loc, "--rainfall", rain,
                     "--marginals", marg, "--m", "5", "--out", out / "est", *common],
        "simulate": ["simulate", "--locations", loc, "--rainfall", rain, "--marginals", marg,
                     "--summary", out / "est" / "summary.json", "--m", "10",
                     "--out", out / "sim", *common],
        "diagnose": ["diagnose", "--locations", loc, "--rainfall", rain, "--marginals", marg,
                     "--ensemble", out / "sim" / "ensemble.csv", "--out", out / "diag",
                     *common],
    }
    calls = set()
    for stage, args in stages.items():
        spans = tmp_path / f"{stage}.npz"
        target = "make_long" if stage == "make_long" else "cli"
        proc = subprocess.run([sys.executable, str(TRACE_STAGE), str(spans), target,
                               *map(str, args)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{stage}: {proc.stderr}"
        with np.load(spans) as recorded:
            calls.update(str(key) for key in recorded["counter_keys"])
    uncalled = [name for name, *_ in layers() if f"{name}_calls" not in calls]
    assert not uncalled, f"traced layers that no stage called: {uncalled}"
