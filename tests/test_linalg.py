import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from kleinzeta.linalg import Echelon, exact_quotient, rank

from cyclotomic import CyclotomicNumber
from gauss_jordan import GaussJordan


def _random_entry(rng, field):
    if field == "Z":
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


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
            rows.append({c: v for c, v in combo.items() if v})
        else:
            rows.append({c: v for c in range(ncols) if rng.random() < density
                         for v in [_random_entry(rng, field)] if v})
    return rows


def _assert_remainder(ech, ref, row):
    red, scale = ech.reduce(row)
    assert type(scale) is int and scale > 0
    expected = {c: x for c, x in enumerate(ref.reduce(row)) if x}
    assert {c: exact_quotient(v, scale) for c, v in red.items()} == expected


def _assert_stored_rows_integral(ech):
    for pc, row in zip(ech.pivot_cols, ech.rows):
        assert min(row) == pc and type(row[pc]) is int and row[pc] > 0
        assert all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1


@pytest.mark.parametrize("field", ["Z", "Q"])
def test_echelon_matches_gauss_jordan(field):
    rng = random.Random({"Z": 1, "Q": 2}[field])
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


@pytest.mark.parametrize("field", ["Z", "Q"])
def test_tagged_echelon_matches_gauss_jordan(field):
    # gdcohom.DegreeData's use: row t carries a tag column of its own past
    # the eliminated columns, and a row whose remainder holds tags only (a
    # syzygy) is not stored
    rng = random.Random({"Z": 11, "Q": 12}[field])
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


@pytest.mark.parametrize("bad", [0.5, 0.0, Decimal("0.5"), Decimal(0), "1", 1j,
                                 CyclotomicNumber.zeta_pow(5, 1)])
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
