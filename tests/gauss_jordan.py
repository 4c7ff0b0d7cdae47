"""Reference elimination for the tests: dense reduced row echelon form on
Fractions, and on CyclotomicNumbers where an entry lies outside Q, one field
division per pivot."""

from fractions import Fraction

from kleinzeta.cyclo import CyclotomicNumber


def nonzero(x) -> bool:
    return not x.is_zero() if isinstance(x, CyclotomicNumber) else x != 0


class GaussJordan:
    """A row joins when keep(its remainder's nonzero columns) holds."""

    def __init__(self, ncols, keep=lambda cols: True):
        self.ncols, self.keep = ncols, keep
        self.basis = {}         # pivot column -> row with 1 there and 0 at other pivots
        self.pivot_cols = []

    def reduce(self, row: dict) -> list:
        v = [Fraction(0)] * self.ncols
        for c, x in row.items():
            v[c] = x if isinstance(x, CyclotomicNumber) else Fraction(x)
        for pc, b in self.basis.items():
            c = v[pc]
            if nonzero(c):
                v = [x - c * y for x, y in zip(v, b)]
        return v

    def append(self, row: dict):
        v = self.reduce(row)
        cols = [c for c, x in enumerate(v) if nonzero(x)]
        if not cols or not self.keep(cols):
            return
        pc = cols[0]
        inv = 1 / v[pc]
        v = [x * inv for x in v]
        for q, b in self.basis.items():
            c = b[pc]
            if nonzero(c):
                self.basis[q] = [x - c * y for x, y in zip(b, v)]
        self.basis[pc] = v
        self.pivot_cols.append(pc)


def rank(matrix) -> int:
    """The rank of a dense matrix over Q(zeta_n)."""
    ref = GaussJordan(len(matrix[0]) if matrix else 0)
    for row in matrix:
        ref.append(dict(enumerate(row)))
    return len(ref.pivot_cols)
