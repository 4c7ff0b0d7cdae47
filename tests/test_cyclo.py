import math
import operator
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from kleinzeta import gdcohom, hecke, thetasupp
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
            x = CyclotomicNumber.of(n, coords)
            if x.is_zero():
                continue
            assert (x * x.inverse()) == CyclotomicNumber.one(n)
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(5).inverse()


def test_ring_axioms_random():
    rng = random.Random(5)

    def rand(n):
        return CyclotomicNumber.of(n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
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
    return CyclotomicNumber.of(n, tuple(aug[i][d] for i in range(d)))


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_inverse_matches_elimination(n):
    rng = random.Random(1000 + n)
    samples = []
    for _ in range(30):
        coords = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n - 1))
        samples.append(CyclotomicNumber.of(n, coords))
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


# -- the Fraction-coordinate arithmetic the integer representation replaced,
#    kept as the reference it must agree with


def _ref_mul(n, a, b):
    """Product of two Fraction coordinate tuples, reduced by z^(n-1) = -(1 + ... + z^(n-2))."""
    conv = [Fraction(0)] * (2 * n - 3)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    out = conv[: n - 1]
    for e in range(n - 1, len(conv)):
        r = e % n
        if r < n - 1:
            out[r] += conv[e]
        else:
            for i in range(n - 1):
                out[i] -= conv[e]
    return tuple(out)


def _ref_repr(n, coords):
    parts = []
    for i, c in enumerate(coords):
        if c:
            if i == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*z{n}^{i}" if i > 1 else f"{c}*z{n}")
    return " + ".join(parts) if parts else "0"


def _reference_samples(n, rng, count):
    dens = (1, 2, 6, n, n * n)
    samples = [tuple(Fraction(0) for _ in range(n - 1)),
               tuple(Fraction(-(i == 0), n * n) for i in range(n - 1))]
    while len(samples) < count:
        den = rng.choice(dens)
        support = rng.random()
        samples.append(tuple(Fraction(rng.randint(-9, 9), den) if rng.random() < support
                             else Fraction(0) for _ in range(n - 1)))
    return samples


def _assert_matches(x, n, ref):
    """x equals the reference coordinates, in lowest terms over a positive denominator."""
    assert x.n == n and x.coords == tuple(ref)
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert x == CyclotomicNumber.of(n, ref) and hash(x) == hash(CyclotomicNumber.of(n, ref))
    assert repr(x) == _ref_repr(n, ref)


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_cyclotomic_arithmetic_matches_fraction_reference(n):
    rng = random.Random(4200 + n)
    refs = _reference_samples(n, rng, 75)
    xs = [CyclotomicNumber.of(n, r) for r in refs]
    one = (Fraction(1),) + (Fraction(0),) * (n - 2)
    scalars = [3, -2, Fraction(5, 6), Fraction(-7, n), Fraction(1, n * n)]
    for k, (x, a) in enumerate(zip(xs, refs)):
        _assert_matches(x, n, a)
        y, b = xs[(7 * k + 3) % len(xs)], refs[(7 * k + 3) % len(refs)]
        _assert_matches(x + y, n, [u + v for u, v in zip(a, b)])
        _assert_matches(x - y, n, [u - v for u, v in zip(a, b)])
        _assert_matches(-x, n, [-u for u in a])
        _assert_matches(x * y, n, _ref_mul(n, a, b))
        _assert_matches(x * x, n, _ref_mul(n, a, a))
        for f in scalars:
            _assert_matches(x * f, n, [u * f for u in a])
            _assert_matches(f * x, n, [u * f for u in a])
            _assert_matches(x / f, n, [u / f for u in a])
            _assert_matches(x + f, n, [a[0] + f, *a[1:]])
            _assert_matches(f - x, n, [f - a[0], *(-u for u in a[1:])])
        assert x.is_zero() == (not any(a))
        assert x.as_rational() == (a[0] if not any(a[1:]) else None)
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            continue
        inv = x.inverse()
        assert _ref_mul(n, a, inv.coords) == one
        _assert_matches(inv, n, inv.coords)
        _assert_matches(y / x, n, _ref_mul(n, b, inv.coords))
        _assert_matches(Fraction(-5, 3) / x, n, [Fraction(-5, 3) * u for u in inv.coords])
        # one value built over other denominators, one of them negative
        for m in (2, -3, n):
            z = CyclotomicNumber(n, tuple(c * m for c in x.num), x.den * m)
            assert z == x and hash(z) == hash(x) and z.num == x.num and z.den == x.den
        assert (x * 6) / 6 == x and (x + y) - y == x


@pytest.mark.parametrize("bad", [0.1, 1.0, Decimal("0.1"), "1"])
def test_only_ints_and_fractions_enter(bad):
    z = CyclotomicNumber.zeta_pow(5, 1)
    with pytest.raises(TypeError):
        CyclotomicNumber.rational(5, bad)
    with pytest.raises(TypeError):
        CyclotomicNumber.of(5, (1, bad, 0, 0))
    with pytest.raises(TypeError):
        CyclotomicNumber(5, (bad, 0, 0, 0))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(z, bad)
        with pytest.raises(TypeError):
            op(bad, z)


def test_constructor_rejects_fraction_numerators_and_wrong_lengths():
    with pytest.raises(TypeError):
        CyclotomicNumber(5, (Fraction(1, 2), 0, 0, 0))
    with pytest.raises(ValueError):
        CyclotomicNumber.of(5, (1, 2, 3))
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber(5, (1, 0, 0, 0), 0)
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zeta_pow(5, 1) / 0


# -- Fraction constructions in the Q(zeta_n) callers: integer numerators keep
#    them off the CM product route, the eigenspaces and the character sums


def _fractions_built(monkeypatch, fn):
    built = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counting_new)
        fn()
    return built[0]


def test_cyclotomic_callers_build_few_fractions(monkeypatch):
    M = gdcohom.alpha_pullback()
    # pins: the counts at the integer representation plus 10% headroom; the
    # Fraction-coordinate representation built 1181, 2188, 612 and 532
    assert _fractions_built(monkeypatch, lambda: hecke.h3_local_factor_product(3)) <= 12
    assert _fractions_built(monkeypatch, lambda: gdcohom.eigenspace_split(M)) <= 99
    assert _fractions_built(monkeypatch, lambda: gdcohom.fil2_eigenvector_map(M)) == 0
    assert _fractions_built(monkeypatch, lambda: [thetasupp.char_sum(11, v)
                                                  for v in range(1, 5)]) == 0
