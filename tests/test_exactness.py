"""No floating point, ever: the package source states it as a check.

Every module under ``src/spindual`` is parsed with ``ast``; none may hold a
float (or complex) literal, use the name ``float``, or reach into ``math``
for anything but the integer functions ``gcd`` and ``lcm``.  A true
division of two ints is not seen here; the types of the values are what the
rest of the suite checks.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spindual"
INTEGER_MATH = {"gcd", "lcm"}


def inexact(source: str) -> list:
    """(line, what) for each floating-point construct of the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "the name float"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"from math import {alias.name}")
                      for alias in node.names if alias.name not in INTEGER_MATH]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_source_has_no_floating_point(path):
    assert inexact(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "x = 0.5", "x = 1e3", "x = 2j", "y = float(x)", "ok = isinstance(x, float)",
    "import math\ny = math.sqrt(2)", "import math\ny = math.pi", "from math import floor",
])
def test_the_check_finds_floating_point(source):
    assert inexact(source)


def test_the_check_allows_integer_math():
    assert inexact("import math\nL = math.lcm(2, 3) // math.gcd(4, 6)") == []
