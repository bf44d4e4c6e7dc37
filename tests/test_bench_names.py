"""Every cpverify name that scripts/ and perfbench/ read still exists.

The benchmark and the scripts are read with the standard library's ``ast``
only: a name deleted from cpverify fails here, in tier-1, rather than in a
benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _assigned(tree, name):
    """The literal value assigned to ``name`` anywhere in ``tree``, or None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    return None


def _chain(node):
    """``a.b.c`` as ["a", "b", "c"], or None when the root is not a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def _names_read(path):
    """(module, attribute path) of each cpverify name the file reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # local name -> (module, attribute path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cpverify":
                    found.add((alias.name, ()))
                    bound[alias.asname or "cpverify"] = (alias.name if alias.asname else "cpverify", ())
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cpverify":
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(sub)
                    bound[alias.asname or alias.name] = (sub, ())
                except ModuleNotFoundError:
                    bound[alias.asname or alias.name] = (node.module, (alias.name,))
    found |= set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _chain(node)
            if chain and chain[0] in bound:
                module, attrs = bound[chain[0]]
                found.add((module, attrs + tuple(chain[1:])))
    # the tracer names its spans "layer.Name[.method]" and wraps each layer module
    layers = _assigned(tree, "LAYERS")
    for layer in ast.literal_eval(layers) if layers is not None else ():
        found.add((f"cpverify.{layer}", ()))
    for table, part in (("SPAN_OF", "values"), ("after_of", "keys")):
        node = _assigned(tree, table)
        for text in getattr(node, part, ()) if isinstance(node, ast.Dict) else ():
            layer, *attrs = ast.literal_eval(text).split(".")
            found.add((f"cpverify.{layer}", tuple(attrs)))
    return found


def _all_names():
    out = set()
    for path in SOURCES:
        out |= {(path.relative_to(ROOT).as_posix(), module, attrs) for module, attrs in _names_read(path)}
    return sorted(out)


NAMES = _all_names()


def test_the_guard_sees_the_benchmark():
    # a parser that finds nothing would pass every name vacuously
    files = {f for f, _, _ in NAMES}
    assert {"perfbench/workloads.py", "perfbench/tracer.py", "scripts/misprint_survey.py"} <= files
    assert ("perfbench/tracer.py", "cpverify.exact", ("MPoly", "__mul__")) in NAMES
    assert ("perfbench/workloads.py", "cpverify.checks", ("NUMERIC_POINTS",)) in NAMES


@pytest.mark.parametrize("where, module, attrs", NAMES, ids=lambda x: x if isinstance(x, str) else ".".join(x))
def test_name_read_by_benchmark_or_script_exists(where, module, attrs):
    obj = importlib.import_module(module)
    for attr in attrs:
        assert hasattr(obj, attr), f"{where} reads {module}.{'.'.join(attrs)}, which no longer exists"
        obj = getattr(obj, attr)


def _keys_read(path, func, var):
    """The string keys that function ``func`` in ``path`` reads from its local ``var``."""
    tree = ast.parse(path.read_text(), str(path))
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == func)
    return {
        n.slice.value
        for n in ast.walk(fn)
        if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name) and n.value.id == var and isinstance(n.slice, ast.Constant)
    }


def test_table1_resolve_returns_every_key_the_benchmark_reads():
    from cpverify import checks

    keys = _keys_read(ROOT / "perfbench" / "workloads.py", "_table1", "rep")
    # a parser that finds nothing would pass vacuously
    assert keys >= {"ok", "solved", "printed", "exact_as_printed", "scalar_residual", "time_reflected"}
    assert keys <= checks.table1_resolve("II", "ungauged", 1, 2, 2).keys()
