"""Every public name in kleinzeta is used by the program.

The test parses `src/kleinzeta/*.py` and collects each public top-level
function, class and constant and each public method.  A name passes when
some code in `src/`, `demos/` or `perfbench/` loads it: as a name, as an
attribute, or as a string (perfbench looks its targets up with `getattr`).
A method is reached only through an attribute or a string, so a bare name
that happens to match it (a parameter or a local) does not count for it.
Importing a name is not a use of it.  Tests do not count as callers.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kleinzeta"
CALLER_DIRS = ("src", "demos", "perfbench")


def _public(name):
    return not name.startswith("_")


def _definitions():
    """(module, qualified name, bare name, is a method) of each public definition."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in filter(_public, names):
                found.append((path.stem, name, name, False))
            if isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        found.append((path.stem, f"{node.name}.{item.name}", item.name,
                                      True))
    return found


def _loads(tree, names, attributes):
    """Add the tree's bare-name loads to names, and its attribute loads and
    string constants to attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)


def _loaded_names():
    """(bare names loaded, attribute names loaded and string constants)."""
    names, attributes = set(), set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            _loads(ast.parse(path.read_text(), filename=str(path)), names, attributes)
    return names, attributes


def test_every_public_name_has_a_caller():
    defined = _definitions()
    names, attributes = _loaded_names()
    loaded = names | attributes
    unused = [f"{module}.{qualname}" for module, qualname, name, method in defined
              if name not in (attributes if method else loaded)]
    assert not unused, f"public names nothing in {CALLER_DIRS} loads: {unused}"


def test_a_bare_name_does_not_count_as_a_method_call():
    # a parameter named like a method must not keep the method alive; an
    # attribute load or a getattr string does
    names, attributes = set(), set()
    _loads(ast.parse("def f(entries):\n    return entries\n"), names, attributes)
    assert "entries" in names and "entries" not in attributes
    _loads(ast.parse("m.entries()\ngetattr(m, 'det')\n"), names, attributes)
    assert {"entries", "det"} <= attributes


def test_package_version_matches_pyproject():
    import tomllib

    import kleinzeta

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == kleinzeta.__version__


def _listed_modules(text, header, pattern):
    """The module names that pattern finds on the lines after header, up to
    the first blank line or closing fence."""
    block = text.split(header, 1)[1].lstrip("`\n").split("\n\n", 1)[0].split("```", 1)[0]
    return [m.group(1) for m in map(re.compile(pattern).match, block.splitlines()) if m]


def test_module_lists_name_exactly_the_package_files():
    # the Modules: list of the package docstring and README's Layout block
    import kleinzeta

    files = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    docstring = _listed_modules(kleinzeta.__doc__, "Modules:\n", r"  (\w+)\s")
    layout = _listed_modules((ROOT / "README.md").read_text(), "## Layout\n",
                             r"  (\w+)\.py\s")
    assert sorted(docstring) == files
    assert sorted(layout) == files


def test_benchmark_child_imports_resolve():
    # perfbench/child.py imports kleinzeta in a fresh interpreter; every
    # module and name it imports, and every attribute it reads off them,
    # must exist, so that a rename in the package fails here first
    path = ROOT / "perfbench" / "child.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}      # name bound in the child -> the kleinzeta object
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kleinzeta":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound["kleinzeta"] = importlib.import_module("kleinzeta")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kleinzeta":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    assert {"kleinzeta", "hecke", "reference_degree10_at_3", "cli"} <= set(bound)
    read = [(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound]
    assert {("hecke", "predicted_count"), ("cli", "main")} <= set(read)
    missing = [f"{name}.{attr}" for name, attr in read if not hasattr(bound[name], attr)]
    assert not missing, f"perfbench/child.py reads names kleinzeta lacks: {missing}"
