"""No check in kleinzeta samples or rounds: the package is exact arithmetic.

The test parses `src/kleinzeta/*.py` and refuses a `random` or `cmath`
import, a transcendental call or load from `math` (cos, sin, tan, exp, log,
sqrt, atan2, pi) and a complex literal.  Float references stay in the tests.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kleinzeta"
FORBIDDEN_MODULES = {"random", "cmath"}
FORBIDDEN_MATH = {"cos", "sin", "tan", "exp", "log", "sqrt", "atan2", "pi"}


def _inexact(tree):
    """Descriptions of each inexact construct in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names
                      if a.name.split(".")[0] in FORBIDDEN_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in FORBIDDEN_MODULES:
                found.append(f"from {node.module} import")
            elif root == "math":
                found += [f"from math import {a.name}" for a in node.names
                          if a.name in FORBIDDEN_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr in FORBIDDEN_MATH):
            found.append(f"math.{node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append(f"complex literal {node.value!r}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_is_exact(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _inexact(tree) == []


def test_the_guard_sees_each_inexact_construct():
    source = ("import random\nfrom cmath import phase\nfrom math import pi\n"
              "def f(t):\n    import math\n    return math.cos(t) + math.atan2(t, 1) + 2j\n")
    assert sorted(_inexact(ast.parse(source))) == sorted([
        "import random", "from cmath import", "from math import pi", "math.cos", "math.atan2",
        "complex literal 2j"])
    assert _inexact(ast.parse("import math\nn = math.gcd(4, 6) + math.isqrt(17)\n")) == []
