"""No engine module asks which family it is working on.

Each family's data lives in the family table (``cpverify.families``): an
engine reads what it needs from there, never by comparing a value with a
family's name.  The engine modules are read with the standard library's
``ast`` only, so a new comparison fails here, in tier-1.
"""

import ast
from pathlib import Path

import pytest

from cpverify.families import NAMES

SRC = Path(__file__).resolve().parent.parent / "src" / "cpverify"
ENGINES = ("exact", "diffop", "weyl", "radial", "moments", "quadrature")


def _names_in(node):
    """The family names that ``node`` spells out: a string, or a tuple, list or set of strings."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [x.value for x in items if isinstance(x, ast.Constant) and x.value in NAMES]


def family_comparisons(source: str):
    """(line, name) of each comparison in ``source`` with a family's name on either side."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for side in (node.left, *node.comparators):
                found += [(node.lineno, name) for name in _names_in(side)]
    return found


def test_the_guard_sees_a_comparison():
    # a parser that finds nothing would pass every module vacuously
    source = 'if J != "VI":\n    pass\nok = fam in ("II", "IV")\nx = "II" if J == "II_pre" else J\n'
    assert family_comparisons(source) == [(1, "VI"), (3, "II"), (3, "IV")]


@pytest.mark.parametrize("module", ENGINES)
def test_no_engine_compares_with_a_family_name(module):
    found = family_comparisons((SRC / f"{module}.py").read_text())
    assert not found, f"cpverify.{module} compares with family names at (line, name) {found}; read the family table instead"
