import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from kleinzeta.cyclo import CyclotomicNumber
from kleinzeta.linalg import Echelon, exact_quotient, rank


def _nonzero(x) -> bool:
    return not x.is_zero() if isinstance(x, CyclotomicNumber) else x != 0


def _canon(x) -> tuple:
    """x over the power basis of Q(zeta_5), as Fractions."""
    if isinstance(x, CyclotomicNumber):
        return x.coords
    return (Fraction(x), Fraction(0), Fraction(0), Fraction(0))


class GaussJordan:
    """Reference: dense reduced row echelon form on Fractions, and on
    CyclotomicNumbers where an entry lies outside Q, one field division per
    pivot.  A row joins when keep(its remainder's nonzero columns) holds."""

    def __init__(self, ncols, keep):
        self.ncols, self.keep = ncols, keep
        self.basis = {}         # pivot column -> row with 1 there and 0 at other pivots
        self.pivot_cols = []

    def reduce(self, row: dict) -> list:
        v = [Fraction(0)] * self.ncols
        for c, x in row.items():
            v[c] = x if isinstance(x, CyclotomicNumber) else Fraction(x)
        for pc, b in self.basis.items():
            c = v[pc]
            if _nonzero(c):
                v = [x - c * y for x, y in zip(v, b)]
        return v

    def append(self, row: dict):
        v = self.reduce(row)
        cols = [c for c, x in enumerate(v) if _nonzero(x)]
        if not cols or not self.keep(cols):
            return
        pc = cols[0]
        inv = 1 / v[pc]
        v = [x * inv for x in v]
        for q, b in self.basis.items():
            c = b[pc]
            if _nonzero(c):
                self.basis[q] = [x - c * y for x, y in zip(b, v)]
        self.basis[pc] = v
        self.pivot_cols.append(pc)


def _random_entry(rng, field):
    if field == "Z":
        return rng.randint(-6, 6)
    if field == "Q":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    kind = rng.random()
    if kind < 0.3:
        return rng.randint(-4, 4)
    if kind < 0.5:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return CyclotomicNumber.of(5, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                   for _ in range(4)])


def _random_rows(rng, field, nrows, ncols, density):
    """Sparse rows with zero rows, repeated rows and rows that combine two
    earlier ones mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.1:
            rows.append({})
        elif rows and kind < 0.25:
            rows.append(dict(rng.choice(rows)))
        elif len(rows) > 1 and kind < 0.4:
            r1, r2 = rng.sample(rows, 2)
            a, b = _random_entry(rng, field), _random_entry(rng, field)
            combo = {c: a * r1.get(c, 0) + b * r2.get(c, 0) for c in set(r1) | set(r2)}
            rows.append({c: v for c, v in combo.items() if _nonzero(v)})
        else:
            rows.append({c: v for c in range(ncols) if rng.random() < density
                         for v in [_random_entry(rng, field)] if _nonzero(v)})
    return rows


def _assert_remainder(ech, ref, row):
    red, scale = ech.reduce(row)
    assert type(scale) is int and scale > 0
    expected = {c: _canon(x) for c, x in enumerate(ref.reduce(row)) if _nonzero(x)}
    assert {c: _canon(exact_quotient(v, scale)) for c, v in red.items()} == expected


def _assert_stored_rows_integral(ech):
    for pc, row in zip(ech.pivot_cols, ech.rows):
        assert min(row) == pc and type(row[pc]) is int and row[pc] > 0
        content = 0
        for v in row.values():
            assert type(v) is int or (isinstance(v, CyclotomicNumber) and v.den == 1)
            content = math.gcd(content, abs(v) if type(v) is int else math.gcd(*v.num))
        assert content == 1


@pytest.mark.parametrize("field", ["Z", "Q", "Q(zeta5)"])
def test_echelon_matches_gauss_jordan(field):
    rng = random.Random({"Z": 1, "Q": 2, "Q(zeta5)": 3}[field])
    for _ in range(12):
        ncols = rng.randint(1, 12)
        rows = _random_rows(rng, field, rng.randint(1, 14), ncols, rng.choice([0.2, 0.4, 0.7]))
        ech, ref = Echelon(), GaussJordan(ncols, keep=lambda cols: True)
        for row in rows:
            _assert_remainder(ech, ref, row)
            ech.append(ech.reduce(row)[0])
            ref.append(row)
        assert ech.pivot_cols == ref.pivot_cols
        assert rank([[row.get(c, 0) for c in range(ncols)] for row in rows]) == len(ref.pivot_cols)
        _assert_stored_rows_integral(ech)
        for query in rows + _random_rows(rng, field, 5, ncols, 0.5):
            _assert_remainder(ech, ref, query)


@pytest.mark.parametrize("field", ["Z", "Q", "Q(zeta5)"])
def test_tagged_echelon_matches_gauss_jordan(field):
    # gdcohom.DegreeData's use: row t carries a tag column of its own past
    # the eliminated columns, and a row whose remainder holds tags only (a
    # syzygy) is not stored
    rng = random.Random({"Z": 11, "Q": 12, "Q(zeta5)": 13}[field])
    syzygies = 0
    for _ in range(8):
        ncols = rng.randint(2, 10)
        rows = _random_rows(rng, field, rng.randint(2, 14), ncols, 0.4)
        tag0 = ncols
        tagged = [{**row, tag0 + t: 1} for t, row in enumerate(rows)]
        ech = Echelon()
        ref = GaussJordan(ncols + len(rows), keep=lambda cols: cols[0] < tag0)
        for row in tagged:
            red, _ = ech.reduce(row)
            if min(red) < tag0:
                ech.append(red)
            else:
                syzygies += 1
            ref.append(row)
        assert ech.pivot_cols == ref.pivot_cols
        for query in tagged + _random_rows(rng, field, 4, ncols, 0.5):
            _assert_remainder(ech, ref, query)
    assert syzygies > 0


@pytest.mark.parametrize("bad", [0.5, 0.0, Decimal("0.5"), Decimal(0), "1", 1j])
def test_inexact_entries_raise_type_error(bad):
    with pytest.raises(TypeError):
        rank([[1, bad], [Fraction(1, 2), 2]])
    with pytest.raises(TypeError):
        Echelon().reduce({0: 1, 3: bad})


def test_float_matrix_is_refused_not_ranked():
    # in floating point this matrix reads rank 2; exact types refuse it
    with pytest.raises(TypeError):
        rank([[0.5, 1.0], [1.0, 2.0000000001]])
    assert rank([[Fraction(1, 2), 1], [1, 2]]) == 1
