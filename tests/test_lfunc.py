import ast
import functools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kleinzeta import lfunc
from kleinzeta.hecke import h3_local_factor_product, primes_up_to
from kleinzeta.lfunc import (InconsistentCounts, LocalFactor, PowerSums, counts_to_power_sums,
                             power_sums_to_local_factor, weil_bound_check)
from kleinzeta.poly import mul
from kleinzeta.reference import reference_degree10_at_3

from forward_newton import local_factor_power_sums

TARGET3 = reference_degree10_at_3()


def test_reference_expansion():
    assert TARGET3.coeffs == (1, 0, 0, 0, 0, 7533, 0, 0, 0, 0, 3 ** 15)


def test_counts_to_power_sums_examples():
    assert counts_to_power_sums([40], 3).values == (0,)
    p = 7
    assert counts_to_power_sums([1 + p + p * p + p ** 3], p).values == (0,)
    # the p = 23 count forced by the trace identity
    assert counts_to_power_sums([13755], 23).values == (-1035,)


def test_counts_to_power_sums_rejects_bad_prime():
    with pytest.raises(ValueError):
        counts_to_power_sums([100], 11)


def test_power_sums_weil_bound():
    with pytest.raises(InconsistentCounts):
        PowerSums(3, (1000,))


def test_all_zero_power_sums_give_sparse_factor():
    L = power_sums_to_local_factor(PowerSums(5, (0, 0, 0, 0, 0)))
    expected = (1,) + (0,) * 9 + (5 ** 15,)
    assert L.coeffs == expected
    assert weil_bound_check(L)


def test_flagship_power_sums_reproduce_target():
    L = power_sums_to_local_factor(PowerSums(3, (0, 0, 0, 0, -37665)))
    assert L.coeffs == TARGET3.coeffs


def test_round_trip_on_target():
    t = local_factor_power_sums(TARGET3, 5)
    assert t == [0, 0, 0, 0, -37665]
    assert power_sums_to_local_factor(PowerSums(3, tuple(t))).coeffs == TARGET3.coeffs
    counts = [1 + 3 ** k + 3 ** (2 * k) + 3 ** (3 * k) - tk for k, tk in enumerate(t, start=1)]
    assert counts[0] == 40
    assert power_sums_to_local_factor(counts_to_power_sums(counts, 3)).coeffs == TARGET3.coeffs


def test_round_trip_on_random_symmetric_factors():
    rng = random.Random(17)
    p = 5
    for _ in range(25):
        # random half, mirrored by the functional equation; p_k derived by
        # forward Newton, then reconstructed, also through the count route
        c = [1] + [rng.randint(-6, 6) for _ in range(5)]
        full = c + [p ** (3 * (5 - j)) * c[j] for j in range(4, -1, -1)]
        L = LocalFactor(p, tuple(full))
        t = local_factor_power_sums(L, 5)
        back = power_sums_to_local_factor(PowerSums(p, tuple(t)))
        assert back.coeffs == L.coeffs
        counts = [1 + p ** k + p ** (2 * k) + p ** (3 * k) - tk for k, tk in enumerate(t, start=1)]
        again = power_sums_to_local_factor(counts_to_power_sums(counts, p))
        assert again.coeffs == L.coeffs


def test_functional_equation_enforced():
    bad = list(TARGET3.coeffs)
    bad[9] = 1
    with pytest.raises(ValueError):
        LocalFactor(3, tuple(bad))
    with pytest.raises(ValueError):
        LocalFactor(3, tuple(list(TARGET3.coeffs)[:10]))
    wrong_c0 = (2,) + TARGET3.coeffs[1:]
    with pytest.raises(ValueError):
        LocalFactor(3, wrong_c0)


def test_newton_exactness_error():
    # t_1 = 0, t_2 = 1 forces e_2 = -1/2
    with pytest.raises(InconsistentCounts):
        power_sums_to_local_factor(PowerSums(3, (0, 1, 0, 0, 0)))


def test_weil_bound_check_detects_corruption():
    assert weil_bound_check(TARGET3)
    bumped = list(TARGET3.coeffs)
    bumped[1] += 1
    bumped[9] = 3 ** 12 * bumped[1]
    assert not weil_bound_check(LocalFactor(3, tuple(bumped)))



# ---------------------------------------------------------------------------
# exact purity against the floating-point check it replaced: np.roots on the
# exact square-free part, |lambda| against p^(3/2) within 1e-6 relative


def _divmod_q(a, b):
    """Quotient and remainder of Fraction coefficient lists, low degree first."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while b[-1] == 0:
        b.pop()
    quotient = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        f = a[shift + len(b) - 1] / b[-1]
        quotient[shift] = f
        for i, x in enumerate(b):
            a[shift + i] -= f * x
    remainder = a[:len(b) - 1]
    while remainder and remainder[-1] == 0:
        remainder.pop()
    return quotient, remainder


def _float_purity(L):
    coeffs = list(L.coeffs)
    a, b = coeffs, [k * c for k, c in enumerate(coeffs)][1:]
    while b:
        a, b = b, _divmod_q(a, b)[1]
    squarefree, remainder = _divmod_q(coeffs, a)
    assert not remainder
    roots = np.roots([float(c) for c in squarefree][::-1])
    assert len(roots) == len(squarefree) - 1 and np.all(np.isfinite(roots))
    target = L.p ** 1.5
    return bool(np.all(np.abs(1.0 / np.abs(roots) - target) <= 1e-6 * target))


def _mirrored(p, half):
    """The factor with c_0 .. c_5 = half and the weight-3 functional equation."""
    return LocalFactor(p, tuple(half) + tuple(p ** (3 * (5 - j)) * half[j]
                                              for j in range(4, -1, -1)))


def _product(p, *factors):
    return LocalFactor(p, tuple(functools.reduce(mul, factors)))


def test_exact_purity_matches_root_moduli_on_perturbed_product_factors():
    # the product-route factor at every good p <= 97 and 39 seeded
    # perturbations of c_1 .. c_4 (their mirrors follow)
    rng = random.Random(24)
    verdicts = []
    for p in primes_up_to(97):
        if p == 11:
            continue
        base = list(h3_local_factor_product(p).coeffs[:6])
        assert weil_bound_check(_mirrored(p, base))
        for _ in range(39):
            half = list(base)
            for j in range(1, 5):
                half[j] += rng.randint(-3, 3) * rng.choice([1, p, p * p])
            L = _mirrored(p, half)
            verdict = weil_bound_check(L)
            assert verdict == _float_purity(L), (p, half)
            verdicts.append(verdict)
    # both verdicts occur, so the agreement is not vacuous
    assert len(verdicts) == 24 * 39 and 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("p", [23, 67, 89])
def test_exact_purity_on_fifth_powers_at_split_primes(p):
    # at p = 1 mod 11 the factor is the fifth power of one quadratic, so the
    # trace polynomial has a single root of multiplicity 5
    L = h3_local_factor_product(p)
    quadratic = (1, L.coeffs[1] // 5, p ** 3)
    assert _product(p, *[quadratic] * 5).coeffs == L.coeffs
    assert weil_bound_check(L) and _float_purity(L)
    edge = math.isqrt(4 * p ** 3)
    for a, pure in ((edge, True), (-edge, True), (edge + 1, False), (-edge - 1, False)):
        M = _product(p, *[(1, a, p ** 3)] * 5)
        assert weil_bound_check(M) == pure == _float_purity(M), a


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_purity_counts_real_inverse_roots_at_the_endpoints(p):
    # (1 - q x^2)^4 (1 + a x + q x^2): inverse roots +-p^(3/2) put roots of
    # the trace polynomial exactly at +-2 sqrt q, which are inside
    q = p ** 3
    edge = math.isqrt(4 * q)
    for a, pure in ((edge, True), (-edge, True), (0, True),
                    (edge + 1, False), (-edge - 1, False)):
        L = _product(p, *[(1, 0, -q)] * 4, (1, a, q))
        assert weil_bound_check(L) == pure == _float_purity(L), a


def test_trace_polynomial_substitution():
    # x^5 R(x + q/x) = x^10 L(1/x), checked at several rational x
    for L in (TARGET3, h3_local_factor_product(23), h3_local_factor_product(7)):
        R, q = lfunc._trace_polynomial(L), L.p ** 3
        assert len(R) == 6 and R[-1] == 1
        for x in (Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(q, 5)):
            y = x + q / x
            lhs = x ** 5 * sum(c * y ** i for i, c in enumerate(R))
            rhs = sum(c * x ** (10 - i) for i, c in enumerate(L.coeffs))
            assert lhs == rhs


def test_lfunc_imports_no_numpy():
    tree = ast.parse(Path(lfunc.__file__).read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(m and m.split(".")[0] == "numpy" for m in modules)
    assert not hasattr(lfunc, "PURITY_TOLERANCE")


def test_numpy_serves_the_jacobi_walk_alone():
    # numpy is imported as np, and the name np is read only by the log/exp
    # tables' build and the Jacobi walk that reads them: one kernel to port
    importers, readers = set(), set()
    for path in sorted(Path(lfunc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                importers |= {(path.stem, a.name, a.asname) for a in node.names
                              if a.name.split(".")[0] == "numpy"}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                importers.add((path.stem, node.module, None))
        for top in tree.body:
            readers |= {f"{path.stem}.{getattr(top, 'name', '<module>')}" for node in ast.walk(top)
                        if isinstance(node, ast.Name) and node.id == "np"
                        and isinstance(node.ctx, ast.Load)}
    assert importers == {("counting", "numpy", "np"), ("ffield", "numpy", "np")}
    assert readers <= {"ffield._log_exp_cached", "counting._jacobi_eigenvalue"}
