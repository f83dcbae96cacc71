"""Every public function and class of the package, and every public
method and property of its classes, has a reader.

A public name that a `src/tritnet` module defines must be used somewhere
in `src/` or `perfbench/` other than at its definition, be traced by the
benchmark (a `PER_LAYER` entry of perfbench/run.py), appear in the
README's "Python API" block, or sit in `ALLOWED` with its reason. A name
that only the tests call is a wrapper to delete or an oracle to move
into the tests.

A field default is declared in one dataclass of the package: two
dataclasses that both declare a defaulted field of one name hold two
copies of a knob that can drift apart; a subclass inherits its base's
fields instead. Files are parsed, not imported.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tritnet"

#: Public names kept for callers outside the programs, each with its reason.
ALLOWED = {
    "encode_table": "scalar oracle of the vectorized gate-id codec",
    "decode_table": "scalar oracle of the vectorized gate-id codec",
    "grid_index": "scalar oracle of the grid order",
    "monomials": "scalar oracle of the Vandermonde matrix's rows",
    "load_history": "reader of the history files the package writes",
    "load_manifest": "reader of the manifests the package writes",
    "spearman": "the statistic of the acceptance gate's rank checks",
}


def used_names(tree):
    """Every name read in a module: bare names, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def per_layer_functions():
    """The `<function>` of each "<module>.<function>.<stat>" in PER_LAYER."""
    for node in ast.parse((ROOT / "perfbench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PER_LAYER" for t in node.targets):
            return {n.split(".")[1] for n in ast.literal_eval(node.value)
                    if n.count(".") == 2}
    raise LookupError("perfbench/run.py assigns no PER_LAYER")


def readme_api_names():
    """Names the README's "Python API" code block reads."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Python API\s*```python\n(.*?)```", text, re.S)
    assert block, "README has no Python API block"
    return used_names(ast.parse(block.group(1)))


def public_definitions():
    """(qualified name, name) of each public top-level function and class
    and of each public method and property of those classes, including a
    property assigned as `name = property(...)`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    names = [member.name]
                elif (isinstance(member, ast.Assign) and isinstance(member.value, ast.Call)
                      and getattr(member.value.func, "id", None) == "property"):
                    names = [t.id for t in member.targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    if not name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{name}", name


def test_every_public_name_has_a_reader():
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        used |= used_names(ast.parse(path.read_text()))
    readers = used | per_layer_functions() | readme_api_names() | set(ALLOWED)
    unread = [qualified for qualified, name in public_definitions()
              if name not in readers]
    assert not unread


def test_allowlist_holds_only_defined_names():
    defined = {name for _, name in public_definitions()}
    assert set(ALLOWED) <= defined


def defaulted_fields():
    """(qualified class name, field name) of each field with a default
    that a `src/tritnet` dataclass declares in its own body."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(getattr(d, "func", d), "id", None) == "dataclass"
                    for d in node.decorator_list):
                for member in node.body:
                    if isinstance(member, ast.AnnAssign) and member.value is not None:
                        yield f"{path.stem}.{node.name}", member.target.id


def test_each_field_default_is_declared_once():
    owners = {}
    for cls, name in defaulted_fields():
        owners.setdefault(name, []).append(cls)
    assert {name: cls for name, cls in owners.items() if len(cls) > 1} == {}
