"""The check harness reads one clock and applies one failure rule.

`VerificationReport.run` in `cli.py` is where every check's work is timed
and where an ArithmeticError turns into a failing check.  The test parses
`cli.py` and requires that `time.perf_counter` is named at one site and
`ArithmeticError` is caught at one site, both inside `run`; the only other
handler is `main`'s usage-error handler for ValueError and OSError.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "kleinzeta" / "cli.py"


def _scoped_nodes():
    """(node, qualified name of the innermost enclosing def or class) for every node."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            out.append((child, inner))
            visit(child, inner)

    visit(ast.parse(CLI.read_text(), filename=str(CLI)), "")
    return out


def _names(node):
    if node is None:
        return ()
    if isinstance(node, ast.Tuple):
        return tuple(n for elt in node.elts for n in _names(elt))
    return (ast.unparse(node),)


def test_one_clock_and_one_failure_rule():
    nodes = _scoped_nodes()
    clocks = [scope for node, scope in nodes
              if isinstance(node, ast.Attribute) and node.attr == "perf_counter"
              or isinstance(node, ast.Name) and node.id == "perf_counter"]
    assert clocks == ["VerificationReport.run"]
    handlers = [(scope, _names(node.type)) for node, scope in nodes
                if isinstance(node, ast.ExceptHandler)]
    assert sorted(handlers) == [("VerificationReport.run", ("ArithmeticError",)),
                                ("main", ("ValueError", "OSError"))]
    assert "_timed" not in {scope.rsplit(".", 1)[-1] for _, scope in nodes}


def test_no_other_module_reads_a_clock():
    # every time in a report comes from run's clock: no other module of the
    # package imports time (count_klein used to time itself into its record)
    for path in sorted(CLI.parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert ("time" in imported) == (path == CLI), path.name
