"""The functions the benchmark's traced run names must exist in the package.

perfbench/run.py lists them in PER_LAYER as "<module>.<function>.<stat>";
a name its tracer cannot find is reported as 0 and counted as absent.
The file is read, not imported, so this check starts no benchmark code.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def constant(name):
    """The literal value assigned to a module-level name of run.py."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{RUN} assigns no {name}")


def test_every_per_layer_function_resolves_in_the_package():
    special = constant("SPECIAL_UNITS")
    names = [n for n in constant("PER_LAYER") if n not in special]
    assert names
    missing = []
    for name in names:
        module, function, _stat = name.split(".")
        mod = importlib.import_module(f"tritnet.{module}")
        fn = getattr(mod, function, None)
        # what the tracer wraps: public functions defined in that module
        if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
            missing.append(name)
    assert not missing
