"""Exact sparse linear algebra over Q or Q(zeta_5).

Rows are dicts {column index: coefficient} holding no zero coefficients;
coefficients may be Fraction or CyclotomicNumber (any type with field
arithmetic and an is-zero test), mixed within one row.  Everything is
deterministic: rows are processed in input order and pivots prefer the
smallest column index.

Elimination keeps row echelon form, not reduced row echelon form: a stored
row is never revisited once later rows arrive.  That is all that reduction
modulo the row space (`Echelon.reduce`) and `rank` need; a caller that wants
the combination behind a reduction carries it in extra tag columns past
the ones it eliminates (see gdcohom.DegreeData).
"""

from __future__ import annotations

from fractions import Fraction


def _is_zero(x) -> bool:
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


class Echelon:
    """Row echelon form maintained incrementally.

    Row k has coefficient 1 at pivot_cols[k] and 0 at the pivot columns of
    rows 0..k-1, so reducing against the rows in order clears every pivot
    column.  The remainder is unique, because no nonzero vector of the row
    space vanishes on every pivot column, so it equals the one a fully
    reduced form would give.
    """

    def __init__(self):
        self.rows = []          # parallel to pivot_cols
        self.pivot_cols = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        """Return row reduced modulo the current echelon (fresh dict, no zeros)."""
        out = {c: v for c, v in row.items() if not _is_zero(v)}
        for pc, prow in zip(self.pivot_cols, self.rows):
            c = out.pop(pc, None)
            if c is None:
                continue
            for col, v in prow.items():
                if col == pc:
                    continue
                old = out.get(col)
                if old is None:
                    out[col] = -(c * v)
                    continue
                nv = old - c * v
                if _is_zero(nv):
                    del out[col]
                else:
                    out[col] = nv
        return out

    def append(self, red: dict) -> None:
        """Insert a row that `reduce` returned; a zero row adds nothing."""
        if red:
            pc = min(red)
            inv = Fraction(1) / red[pc]
            self.rows.append({c: v * inv for c, v in red.items()})
            self.pivot_cols.append(pc)


def rank(matrix) -> int:
    ech = Echelon()
    for r in matrix:
        ech.append(ech.reduce({j: v for j, v in enumerate(r) if not _is_zero(v)}))
    return ech.rank
