"""Exact sparse linear algebra over Q, by fraction-free elimination.

Rows are dicts {column index: coefficient}.  A coefficient must be an int or
a Fraction, mixed within one row as needed; any other type raises TypeError,
so a float never enters an echelon.  Everything is deterministic: rows are
processed in input order and pivots prefer the smallest column index.
`common_denominator` is that rule: it checks a sequence of values and puts
them over one positive integer denominator, for an echelon row as for the
exact callers outside the echelon (the theta matrices, the Fourier
eigenvectors of gdcohom).

Elimination keeps integers integral (Bareiss 1968, Math. Comp. 22).  A
reduction first clears its row's denominators with `common_denominator` and
drops its zeros; from then on every entry is an int.  A pivot is cleared by
r <- a r - c P, where a is the pivot entry of the stored row P and c the
entry of r, both first divided by their gcd.  So a reduction builds no
Fraction: it returns its remainder together with the positive integer scale
that multiplies it, and a caller divides once for each coordinate it reads
(`exact_quotient`).

Elimination keeps row echelon form, not reduced row echelon form: a stored
row is never revisited once later rows arrive.  That is all that reduction
modulo the row space (`Echelon.reduce`) and `rank` need; a caller that wants
the combination behind a reduction carries it in extra tag columns past
the ones it eliminates (see gdcohom.DegreeData).
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

EXACT_SCALARS = (int, Fraction)


def common_denominator(values) -> tuple:
    """(numerators, den > 0) over the least common denominator of ints or
    Fractions; any other value raises TypeError."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            break
    else:  # ints alone, as in most echelon rows: their own numerators over 1
        return values, 1
    if not all(isinstance(v, EXACT_SCALARS) for v in values):
        raise TypeError(f"exact values must be int or Fraction, got {values!r}")
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def exact_quotient(v: int, scale: int):
    """v / scale for an entry of a remainder and its positive integer scale:
    an int when scale divides v, else a Fraction."""
    return v // scale if v % scale == 0 else Fraction(v, scale)


class Echelon:
    """Row echelon form maintained incrementally.

    Row k has a positive integer at pivot_cols[k] and 0 at the pivot columns
    of rows 0..k-1, and its entries have no common integer factor.  So
    reducing against the rows in order clears every pivot column, and a
    remainder term in the pivot column of row k can only be brought in by
    rows before k.  The remainder is unique up to its scale, because no
    nonzero vector of the row space vanishes on every pivot column, so it is
    a multiple of the one a fully reduced form would give.
    """

    def __init__(self):
        self.rows = []          # parallel to pivot_cols
        self.pivot_cols = []
        self._row_of = {}       # pivot column -> row index

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> tuple:
        """(remainder, scale): scale times row, reduced modulo the current
        echelon, as a fresh dict of integral entries without zeros, and the
        positive integer scale.

        Only the rows whose pivot columns the remainder holds are visited,
        in row order."""
        nums, scale = common_denominator(row.values())
        out = {col: v for col, v in zip(row, nums) if v}
        row_of = self._row_of
        pending = sorted(row_of[c] for c in out if c in row_of)
        while pending:
            k = pending.pop(0)
            pc = self.pivot_cols[k]
            c = out.pop(pc, None)
            if c is None:  # cancelled, or a repeated entry of pending
                continue
            prow = self.rows[k]
            a = prow[pc]
            g = math.gcd(a, c)
            if g != 1:
                a //= g
                c //= g
            if a != 1:
                scale *= a
                for col in out:
                    out[col] *= a
            for col, v in prow.items():
                if col == pc:
                    continue
                old = out.get(col)
                if old is None:
                    out[col] = -(c * v)
                    later = row_of.get(col)
                    if later is not None:
                        bisect.insort(pending, later)
                    continue
                nv = old - c * v
                if nv == 0:
                    del out[col]
                else:
                    out[col] = nv
        return out, scale

    def append(self, red: dict) -> None:
        """Insert a remainder that `reduce` returned; a zero row adds nothing."""
        if not red:
            return
        pc = min(red)
        g = math.gcd(*red.values())
        if red[pc] < 0:
            g = -g
        self._row_of[pc] = len(self.rows)
        self.rows.append({c: v // g for c, v in red.items()} if g != 1 else dict(red))
        self.pivot_cols.append(pc)


def rank(matrix) -> int:
    ech = Echelon()
    for r in matrix:
        ech.append(ech.reduce(dict(enumerate(r)))[0])
    return ech.rank
