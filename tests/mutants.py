"""Named one-line mutants of the program, and which checks kill them.

Each mutant is a named (module, old line, new line) triple with a one-line
note: the module is a file under src/kleinzeta, and the old line,
indentation included, must occur exactly once under src/
(`tests/test_mutants.py` holds that, so the list cannot rot unseen).  Run

    python tests/mutants.py [name ...]

Each mutant gets its own temporary copy of the repository's `src/`,
`tests/` and `pyproject.toml` with its line replaced, and there
the script runs `kleinzeta report` (killed: it exits nonzero) and the
golden-outputs test (killed: it fails), at most two mutants at a time.  The
unmutated tree is run first, and must pass both.  The script prints which
of the two killed each mutant, and the score: the share of mutants that at
least one of them killed.  It uses the standard library alone, and pytest
does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    module: str         # path under src/kleinzeta
    old: str
    new: str
    note: str           # what the mutant breaks, or why it survives


MUTANTS = [
    Mutant("st-ok-sum-0-or-1", "thetasupp.py",
           "    st_ok = all((i + j) % p == 0 for (*_, i, j), _ in contrib_combos)",
           "    st_ok = all((i + j) % p in (0, 1) for (*_, i, j), _ in contrib_combos)",
           "the scan hands the claim only combos with i + j = 0 mod p; "
           "test_type_four_claim_needs_s_plus_t_integral kills it"),
    Mutant("st-ok-true", "thetasupp.py",
           "    st_ok = all((i + j) % p == 0 for (*_, i, j), _ in contrib_combos)",
           "    st_ok = True",
           "as st-ok-sum-0-or-1"),
    Mutant("gamma0-c-class-p", "thetasupp.py",
           "_GAMMA0_P2 = (EntryConstraint(0, True), EntryConstraint(0), EntryConstraint(2),",
           "_GAMMA0_P2 = (EntryConstraint(0, True), EntryConstraint(0), EntryConstraint(1),",
           "the stabilizer proof over Gamma_0(p) in place of Gamma_0(p^2)"),
    Mutant("ap-f-sign-rule", "hecke.py",
           "    return a if a * INV2_MOD_11 % 11 in SPLIT_RESIDUES else -a",
           "    return -a if a * INV2_MOD_11 % 11 in SPLIT_RESIDUES else a",
           "the CM route's sign of a_p"),
]

REPORT = "import sys\nfrom kleinzeta.cli import main\nsys.exit(main(['report']))\n"
GOLDEN_TEST = "tests/test_golden_outputs.py"


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(SRC, dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "kleinzeta" / mutant.module
    lines = path.read_text().split("\n")
    if lines.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old line does not occur exactly once "
                         f"in {mutant.module}")
    lines[lines.index(mutant.old)] = mutant.new
    path.write_text("\n".join(lines))


def _fails(tree: Path, argv: list) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=600)
    return done.returncode != 0


def run(mutant: Mutant | None) -> dict:
    """{"report": killed, "golden": killed} for the mutant, or for the
    unmutated tree when mutant is None."""
    with tempfile.TemporaryDirectory(prefix="kleinzeta-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            _apply(tree, mutant)
        return {"report": _fails(tree, [sys.executable, "-c", REPORT]),
                "golden": _fails(tree, [sys.executable, "-m", "pytest", "-q", "-x",
                                        "-p", "no:cacheprovider", GOLDEN_TEST])}


def main(names: list) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if any(run(None).values()):
        print("the unmutated tree fails report or the golden test", file=sys.stderr)
        return 1
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run, chosen))
    width = max(len(m.name) for m in chosen)
    for mutant, killed in zip(chosen, results):
        by = [check for check, hit in killed.items() if hit]
        verdict = "killed by " + " and ".join(by) if by else f"survived: {mutant.note}"
        print(f"{mutant.name:{width}}  {verdict}")
    score = sum(any(k.values()) for k in results)
    print(f"score: {score} of {len(chosen)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
