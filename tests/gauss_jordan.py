"""Reference elimination for the tests: dense reduced row echelon form on
Fractions, and on CyclotomicNumbers where an entry lies outside Q, one field
division per pivot.  A cyclotomic pivot is inverted by elimination on
Fractions as well, so the reference uses only the ring operations of the
reference number type in cyclotomic.py."""

from fractions import Fraction

from cyclotomic import CyclotomicNumber


def nonzero(x) -> bool:
    return not x.is_zero() if isinstance(x, CyclotomicNumber) else x != 0


def inverse(x):
    """1 / x.  For a CyclotomicNumber, y with y x = 1 solved through the
    rational matrix of multiplication by x, and checked by one product."""
    if not isinstance(x, CyclotomicNumber):
        return 1 / x
    n, d = x.n, x.n - 1
    cols = [(x * CyclotomicNumber.zeta_pow(n, j)).coords for j in range(d)]
    aug = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    y = CyclotomicNumber.of(n, tuple(row[d] for row in aug))
    assert x * y == CyclotomicNumber.one(n)
    return y


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
        inv = inverse(v[pc])
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
