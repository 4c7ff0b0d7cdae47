"""Every function defined in the package is one the program runs.

A fresh interpreter imports `kleinzeta.cli` under `sys.setprofile` and runs
`report --max 2` twice on one cache (cold, then warm with `--json`),
`hecke-table --max 30`, `count`, `theta-support` and `--help`, so that it
enters the runner of every subcommand.  Each function entered is recorded by
its file and first line; the test then requires that every `def` under
`src/kleinzeta` was entered.  A function that only tests reach belongs in
`tests/`, and one that nothing reaches belongs nowhere.

The run needs its own interpreter: in this one, the `lru_cache`s that
earlier tests filled would answer calls whose functions then never run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kleinzeta"

RUNS = [
    ["report", "--max", "2", "--cache", "c.jsonl"],
    ["report", "--max", "2", "--cache", "c.jsonl", "--json", "r.json"],
    ["hecke-table", "--max", "30", "--out", "t.csv"],
    ["count", "--p", "3", "--k", "2"],
    ["theta-support", "--type", "I"],
    ["--help"],
]

CHILD = """
import json, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

sys.setprofile(profile)
import kleinzeta.cli
statuses = [kleinzeta.cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"statuses": statuses, "entered": sorted(entered)}), file=sys.stderr)
"""


def _definitions():
    """(path, first line, qualified name) of each def under the package; the
    first line is that of the first decorator, as in the code object."""
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((str(path), first, f"{path.stem}.{inner}"))
            visit(child, path, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.resolve(), "")
    return found


def test_every_package_function_is_entered_by_the_program(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(RUNS)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stderr.splitlines()[-1])
    assert result["statuses"] == [0] * len(RUNS)
    entered = {(str(Path(f).resolve()), line) for f, line in result["entered"]}
    defined = _definitions()
    assert "cli.main" in [name for _, _, name in defined]
    never = [name for path, line, name in defined if (path, line) not in entered]
    assert not never, f"package functions the program never enters: {never}"
