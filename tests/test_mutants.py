"""The mutant list of `mutants.py` still matches the program."""

from pathlib import Path

from mutants import MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src"


def test_each_mutant_old_line_occurs_once_under_src():
    lines = {path: path.read_text().split("\n") for path in sorted(SRC.rglob("*.py"))}
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.new != m.old, m.name
        where = [path.relative_to(SRC / "kleinzeta").as_posix()
                 for path, text in lines.items() for line in text if line == m.old]
        assert where == [m.module], (m.name, where)
