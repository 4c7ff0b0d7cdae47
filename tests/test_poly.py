import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kleinzeta import poly
from kleinzeta.poly import at_zeta, cyclic_mul, mul, pdivmod, trim

from cyclotomic import CyclotomicNumber


def _evaluate(a, t):
    return sum(c * t ** i for i, c in enumerate(a))


def _add(a, b):
    n = max(len(a), len(b))
    return trim([x + y for x, y in zip(list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b)))])


def _random_poly(rng, degree, lead=None):
    coeffs = [rng.randint(-50, 50) for _ in range(degree)]
    return coeffs + [lead if lead is not None else rng.choice([-1, 1]) * rng.randint(1, 50)]


def _check_identity(a, b):
    Q, R = pdivmod(a, b)
    a = trim(a)
    s = abs(b[-1]) ** max(len(a) - len(b) + 1, 0)
    assert _add(mul(Q, b), R) == [s * c for c in a]
    assert len(R) < len(b)
    assert Q == trim(Q) and R == trim(R)


@pytest.mark.parametrize("lead", [1, -1, 2, -3, 7, None])
def test_pdivmod_identity_on_seeded_pairs(lead):
    rng = random.Random(20 + (lead or 0))
    for _ in range(60):
        b = _random_poly(rng, rng.randint(0, 5), lead)
        a = _random_poly(rng, rng.randint(0, 10))
        _check_identity(a, b)


def test_pdivmod_below_the_divisor_degree_returns_a():
    b = [3, 0, -2, 5]
    for a in ([], [4], [1, -2], [0, 7, 9], [6, 0, 0]):
        Q, R = pdivmod(a, b)
        assert Q == [] and R == trim(a)


def test_pdivmod_exact_division_has_zero_remainder():
    rng = random.Random(11)
    for _ in range(40):
        b = _random_poly(rng, rng.randint(1, 4))
        c = _random_poly(rng, rng.randint(0, 5))
        Q, R = pdivmod(mul(b, c), b)
        s = abs(b[-1]) ** (len(c))
        assert R == [] and Q == [s * x for x in c]
    # dividing out y^2 - N, as the purity test does
    N = 108
    assert pdivmod(mul([-N, 0, 1], [5, -1, 1]), [-N, 0, 1]) == ([5, -1, 1], [])


def test_pdivmod_by_a_negative_constant():
    # s = 2^3, and 8 (1 + 2x + 3x^2) = (-4 - 8x - 12x^2)(-2)
    assert pdivmod([1, 2, 3], [-2]) == ([-4, -8, -12], [])


def test_mul_agrees_with_evaluation_at_integer_points():
    rng = random.Random(3)
    for _ in range(40):
        a = _random_poly(rng, rng.randint(0, 6))
        b = _random_poly(rng, rng.randint(0, 6))
        ab = mul(a, b)
        assert len(ab) == len(a) + len(b) - 1
        for t in range(-3, 4):
            assert _evaluate(ab, t) == _evaluate(a, t) * _evaluate(b, t)
    assert mul([], [1, 2]) == [] and mul([1, 2], []) == []


def test_mul_over_fractions_and_skipped_zeros():
    a, b = [Fraction(1, 2), 0, Fraction(-3, 4)], [Fraction(2, 3), Fraction(5)]
    ab = mul(a, b)
    for t in (Fraction(-2), Fraction(1, 3), Fraction(7, 5)):
        assert _evaluate(ab, t) == _evaluate(a, t) * _evaluate(b, t)
    # a zero int in the first factor is skipped; an output coefficient that
    # no term reaches stays the int 0
    z = CyclotomicNumber.zeta_pow(5, 1)
    assert mul([0, 1], [z]) == [0, z]


def test_mul_over_cyclotomic_coefficients():
    rng = random.Random(7)

    def element():
        return CyclotomicNumber.of(5, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                       for _ in range(4)])

    for _ in range(10):
        a = [element() for _ in range(rng.randint(1, 4))]
        b = [element() for _ in range(rng.randint(1, 4))]
        ab = mul(a, b)
        assert all(isinstance(c, CyclotomicNumber) for c in ab)
        for t in (-2, 1, 3):
            assert _evaluate(ab, t) == _evaluate(a, t) * _evaluate(b, t)
        # the same product from the convolution written out
        direct = [CyclotomicNumber.zero(5) for _ in range(len(a) + len(b) - 1)]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                direct[i + j] = direct[i + j] + x * y
        assert ab == direct


@pytest.mark.parametrize("n", [5, 11])
def test_cyclic_mul_at_zeta_matches_the_cyclotomic_product(n):
    # lists of Z[z]/(z^n - 1), multiplied and read at zeta_n, against the
    # reference Q(zeta_n) number type; equal values have equal coordinates
    rng = random.Random(3500 + n)
    for _ in range(200):
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(n)]
        ab = at_zeta(cyclic_mul(a, b))
        assert CyclotomicNumber.of(n, ab) == (CyclotomicNumber.of(n, at_zeta(a))
                                              * CyclotomicNumber.of(n, at_zeta(b)))
        shifted = [c + 7 for c in a]  # a + 7 (1 + z + ... + z^(n-1)): the same value
        assert at_zeta(cyclic_mul(shifted, b)) == ab
    # z^j at zeta_n: z^(n-1) = -(1 + z + ... + z^(n-2))
    for j in range(n):
        e = [int(i == j) for i in range(n)]
        assert CyclotomicNumber.of(n, at_zeta(e)) == CyclotomicNumber.zeta_pow(n, j)


def test_poly_is_a_leaf_module():
    # the rest of the package imports poly, so poly may import neither the package
    # (a cycle) nor numpy
    tree = ast.parse(Path(poly.__file__).read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    froms = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [node.module for node in froms if node.level]
    modules |= {node.module for node in froms}
    assert not any(m.split(".")[0] in ("kleinzeta", "numpy") for m in modules if m)
