import random
from fractions import Fraction

import pytest

from kleinzeta.cyclo import CyclotomicNumber


def test_power_basis_relation():
    for n in (5, 11):
        total = CyclotomicNumber.zero(n)
        for j in range(n):
            total = total + CyclotomicNumber.zeta_pow(n, j)
        assert total.is_zero()


def test_zeta_order():
    z = CyclotomicNumber.zeta_pow(5, 1)
    acc = CyclotomicNumber.one(5)
    for _ in range(5):
        acc = acc * z
    assert acc == CyclotomicNumber.one(5)
    assert CyclotomicNumber.zeta_pow(5, 7) == CyclotomicNumber.zeta_pow(5, 2)


def test_rationality_detection():
    assert CyclotomicNumber.rational(5, Fraction(3, 2)).as_rational() == Fraction(3, 2)
    assert CyclotomicNumber.zeta_pow(5, 1).as_rational() is None


def test_inverse():
    rng = random.Random(23)
    for n in (5, 11):
        for _ in range(20):
            coords = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n - 1))
            x = CyclotomicNumber(n, coords)
            if x.is_zero():
                continue
            assert (x * x.inverse()) == CyclotomicNumber.one(n)
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(5).inverse()


def test_ring_axioms_random():
    rng = random.Random(5)

    def rand(n):
        return CyclotomicNumber(n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                         for _ in range(n - 1)))

    for _ in range(50):
        a, b, c = rand(5), rand(5), rand(5)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_conductor_mismatch_raises():
    with pytest.raises(ValueError):
        CyclotomicNumber.zeta_pow(5, 1) + CyclotomicNumber.zeta_pow(11, 1)
    with pytest.raises(ValueError):
        CyclotomicNumber.zero(9)


def test_norm_of_one_minus_zeta_is_conductor():
    # prod_{j=1..n-1} (1 - zeta^j) = n
    for n in (5, 11):
        prod = CyclotomicNumber.one(n)
        for j in range(1, n):
            prod = prod * (CyclotomicNumber.one(n) - CyclotomicNumber.zeta_pow(n, j))
        assert prod.as_rational() == n


def _inverse_by_elimination(x: CyclotomicNumber) -> CyclotomicNumber:
    """Reference inverse: solve y * x = 1 through the rational matrix of
    multiplication by x, by Gauss-Jordan elimination."""
    n = x.n
    d = n - 1
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
    return CyclotomicNumber(n, tuple(aug[i][d] for i in range(d)))


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_inverse_matches_elimination(n):
    rng = random.Random(1000 + n)
    samples = []
    for _ in range(30):
        coords = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n - 1))
        samples.append(CyclotomicNumber(n, coords))
    samples += [CyclotomicNumber.rational(n, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
                for _ in range(5)]
    samples += [CyclotomicNumber.zeta_pow(n, j) for j in range(n)]
    samples += [CyclotomicNumber.zeta_pow(n, j) * Fraction(-3, 2) for j in range(1, n)]
    for x in samples:
        if x.is_zero():
            continue
        inv = x.inverse()
        assert inv == _inverse_by_elimination(x)
        assert x * inv == CyclotomicNumber.one(n)
        assert 1 / x == inv and Fraction(2, 3) / x == inv * Fraction(2, 3)
