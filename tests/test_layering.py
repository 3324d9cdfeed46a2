"""The package's layering, read from its source: one module owns each shared decision.

numerics holds the working-set budget and imports no other raincop module;
only the command line imports estimation; copula holds the substream tags, one
per stream; panel alone turns a float cell into text and reads a data file;
every name a module exports is used in the package or the benchmark; no
function keeps state in a closure through nonlocal; the package pins OpenBLAS
to one thread and fixes the allocator's thresholds before any of its modules
loads, and only numerics.map_chunks builds a thread pool.
"""

import ast
import pathlib

from raincop.copula import SUBSTREAM_TAGS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "raincop"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}
BENCH = [ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted((ROOT / "perfbench").glob("*.py"))]

# Functions outside panel that open a file for reading, each with the reason.
READERS = {
    ("cli", "cmd_simulate"): "summary.json, a JSON object read whole by json.load",
}

# Exported names with no caller yet, each with the reason it stays.
UNCALLED = {
    ("marginals", "read_coefficients"): "the reader of coefficients.txt; ROADMAP item 6 "
                                        "gives it a caller",
}


def imported(tree):
    """The raincop modules a tree imports, by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("raincop"):
            names.add(node.module.partition(".")[2] or "raincop")
        elif isinstance(node, ast.Import):
            names.update(a.name.partition(".")[2] for a in node.names
                         if a.name.startswith("raincop."))
    return names


def functions(tree):
    """(name, node) of every function defined in a tree, methods included."""
    return [(node.name, node) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_numerics_imports_no_raincop_module():
    assert imported(MODULES["numerics"]) == set()


def test_only_the_command_line_imports_estimation():
    # __init__ re-exports the estimation names of the package's public surface
    importers = {name for name, tree in MODULES.items() if "estimation" in imported(tree)}
    assert importers == {"cli", "__init__"}


def test_only_day_chunks_reads_the_budget():
    readers = {(module, name) for module, tree in MODULES.items()
               for name, fn in functions(tree)
               for node in ast.walk(fn)
               if isinstance(node, (ast.Name, ast.Attribute))
               and "_ELEMENT_BUDGET" in (getattr(node, "id", None), getattr(node, "attr", None))}
    assert readers == {("numerics", "day_chunks")}


def test_no_function_rebinds_an_enclosing_name():
    # state lives in a loop's locals or an object's fields, not in a closure's cells
    rebinding = {(module, name) for module, tree in MODULES.items()
                 for name, fn in functions(tree)
                 if any(isinstance(node, ast.Nonlocal) for node in ast.walk(fn))}
    assert rebinding == set()


def test_substream_tags_are_distinct_and_each_names_one_stream():
    assert len(set(SUBSTREAM_TAGS.values())) == len(SUBSTREAM_TAGS)
    # outside copula, every draw's last path element is a tag from the table,
    # and each tag is drawn from at one place
    used = []
    for module, tree in MODULES.items():
        if module == "copula":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("substream", "day_normals", "joint_forecast")):
                last = node.args[-1]
                assert (isinstance(last, ast.Subscript) and isinstance(last.value, ast.Name)
                        and last.value.id == "SUBSTREAM_TAGS"), (module, ast.unparse(node))
                used.append(ast.literal_eval(last.slice))
    assert sorted(used) == sorted(SUBSTREAM_TAGS)


def test_every_exported_name_has_a_caller():
    # a name read, imported or taken as an attribute anywhere in the package
    # or the benchmark; a definition and its __all__ string do neither
    used = set()
    for tree in [*MODULES.values(), *BENCH]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    exported = {(module, name) for module, tree in MODULES.items() for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    assert {(module, name) for module, name in exported if name not in used} == set(UNCALLED)


def test_only_panel_turns_floats_into_text():
    # repr called or passed on (say to map) anywhere but float_text
    formatters = {(module, name) for module, tree in MODULES.items()
                  for name, fn in functions(tree)
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Name) and node.id == "repr"}
    assert formatters == {("panel", "float_text")}
    assert all("csv" not in {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                             for a in n.names} for tree in MODULES.values())


def test_one_import_inside_a_function():
    # read_marginals_csv builds a MarginalField, and marginals imports panel
    inner = [(module, name, ast.unparse(node)) for module, tree in MODULES.items()
             for name, fn in functions(tree)
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == [("panel", "read_marginals_csv", "from .marginals import MarginalField")]


def test_only_panel_opens_a_file_for_reading():
    # open() (io.open, os.open) with no mode or a mode without w, a or x, and the
    # whole-file readers of pathlib and numpy: a second CSV scanner would show here
    def reads(call):
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        if name in ("read_text", "read_bytes", "loadtxt", "genfromtxt", "fromfile"):
            return True
        if name != "open":
            return False
        mode = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "mode"), None)
        return not isinstance(mode, ast.Constant) or not set("wax") & set(str(mode.value))

    readers = {(module, name) for module, tree in MODULES.items() if module != "panel"
               for name, fn in functions(tree)
               for node in ast.walk(fn) if isinstance(node, ast.Call) and reads(node)}
    assert readers == set(READERS)


def test_package_pins_blas_before_its_modules_load():
    # the variable is set before numpy is imported, and numpy's own library
    # and the allocator are told before the first module of the package
    # imports anything
    body = MODULES["__init__"].body
    first_module = next(i for i, node in enumerate(body)
                        if isinstance(node, ast.ImportFrom) and node.level)
    numpy_import = next(i for i, node in enumerate(body) if isinstance(node, ast.Import)
                        and any(a.name == "numpy" for a in node.names))
    pin_var = next(i for i, node in enumerate(body)
                   if ast.unparse(node) == "os.environ['OPENBLAS_NUM_THREADS'] = '1'")
    pin_call = next(i for i, node in enumerate(body) for attr in ast.walk(node)
                    if getattr(attr, "attr", None) == "scipy_openblas_set_num_threads64_")
    allocator = next(i for i, node in enumerate(body) for call in ast.walk(node)
                     if isinstance(call, ast.Call) and ast.unparse(call.func) == "_mallopt")
    assert pin_var < numpy_import < pin_call < allocator < first_module


def test_only_map_chunks_builds_a_thread_pool():
    # --threads has one owner: no other module imports a way to start threads
    # or processes, and within numerics only map_chunks builds the pool
    starters = ("concurrent", "multiprocessing", "threading", "_thread")
    importers = {module for module, tree in MODULES.items() for node in ast.walk(tree)
                 if isinstance(node, ast.Import) and any(a.name.split(".")[0] in starters
                                                         for a in node.names)
                 or isinstance(node, ast.ImportFrom) and not node.level
                 and node.module.split(".")[0] in starters}
    assert importers == {"numerics"}
    builders = {(module, name) for module, tree in MODULES.items()
                for name, fn in functions(tree)
                for node in ast.walk(fn)
                if isinstance(node, ast.Name) and node.id.endswith("PoolExecutor")}
    assert builders == {("numerics", "map_chunks")}
