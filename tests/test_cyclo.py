import ast
import importlib
import math
import operator
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from kleinzeta import cli, gdcohom, hecke, thetasupp

from cyclotomic import CyclotomicNumber
from twist_product import rational_value, twist_product

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kleinzeta"


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
    assert rational_value(CyclotomicNumber.rational(5, Fraction(3, 2))) == Fraction(3, 2)
    assert rational_value(CyclotomicNumber.zeta_pow(5, 1)) is None


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
        assert rational_value(prod) == n


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
            _assert_matches(x + f, n, [a[0] + f, *a[1:]])
            _assert_matches(f - x, n, [f - a[0], *(-u for u in a[1:])])
        assert x.is_zero() == (not any(a))
        assert rational_value(x) == (a[0] if not any(a[1:]) else None)
        # one value built over other denominators, one of them negative
        for m in (2, -3, n):
            z = CyclotomicNumber(n, tuple(c * m for c in x.num), x.den * m)
            assert z == x and hash(z) == hash(x) and z.num == x.num and z.den == x.den
        assert (x * 6) * Fraction(1, 6) == x and (x + y) - y == x


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


def _h3_basis_from_scratch():
    gdcohom.degree_data.cache_clear()
    return gdcohom.h3_basis()


def test_cyclotomic_callers_build_few_fractions(monkeypatch):
    M = gdcohom.alpha_pullback()
    # pins: the counts at the integer representation plus 10% headroom; the
    # Fraction-coordinate representation built 1181, 2188, 612 and 532, and
    # the Fraction echelon 90 in the eigenspace split.  The reduction carries
    # its integer scale to pole orders 3 and 2, where one coordinate of the
    # pullback is not integral; dividing at every step built 83
    assert _fractions_built(monkeypatch, gdcohom.alpha_pullback) == 1
    assert _fractions_built(monkeypatch, lambda: hecke.h3_local_factor_product(3)) == 0
    assert _fractions_built(monkeypatch, lambda: gdcohom.eigenspace_split(M)) == 0
    assert _fractions_built(monkeypatch, lambda: gdcohom.fil2_eigenvector_map(M)) == 0
    assert _fractions_built(monkeypatch, lambda: [thetasupp.char_sum(11, v)
                                                  for v in range(1, 5)]) == 0


def _cyclotomics_built(monkeypatch, fn):
    built = [0]
    post_init = CyclotomicNumber.__post_init__

    def counting_post_init(self):
        built[0] += 1
        post_init(self)

    with monkeypatch.context() as m:
        m.setattr(CyclotomicNumber, "__post_init__", counting_post_init)
        fn()
    return built[0]


def test_the_cm_side_builds_no_cyclotomic(monkeypatch):
    # the Q(zeta_5) reference product builds 211 numbers at p = 3, so the
    # counter does count; the package itself has no Q(zeta_n) number type to
    # build: its cyclotomic values are lists in Z[z]/(z^n - 1) (poly)
    assert _cyclotomics_built(monkeypatch, lambda: twist_product(3)) == 211
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("kleinzeta.cyclo")
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert not [c for c in classes if "cyclotomic" in c.lower()], path.name
        assert not [m for m in imported if "cyclo" in m.lower()], path.name


def test_theta_battery_builds_few_fractions(monkeypatch):
    # pins: the counts with integer kernels and lattice tests plus 10%
    # headroom; PadicMat2 kernel products and entries() built 455 over the
    # four default p = 11 scans and 1101 in the stabilizer check
    def scans():
        for ty in thetasupp.COSET_TYPES:
            thetasupp.scan_type(11, ty)

    assert _fractions_built(monkeypatch, scans) <= 145
    assert _fractions_built(monkeypatch, lambda: thetasupp.stabilizer_invariance_check(11)) <= 67


def test_cohomology_echelon_builds_few_fractions(monkeypatch):
    # pins: the counts of the fraction-free echelon plus 10% headroom; the
    # Fraction echelon built 1262 (basis from scratch), 126 (pullback) and
    # 1805 (pairing), and the one Fraction left in the pairing is its -1/2
    assert _fractions_built(monkeypatch, _h3_basis_from_scratch) == 0
    assert _fractions_built(monkeypatch, gdcohom.alpha_pullback) <= 91
    assert _fractions_built(monkeypatch, gdcohom.gorenstein_pairing_matrix) <= 1
