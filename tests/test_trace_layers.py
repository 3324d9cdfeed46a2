"""The layers perfbench/trace_stage.py wraps still exist in the program.

The tracer finds each layer by module and function name; a function that is
moved or renamed would read 0 in every traced benchmark run instead of failing.
"""

import importlib
import importlib.util
import inspect
import pathlib

TRACE_STAGE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "trace_stage.py"


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
