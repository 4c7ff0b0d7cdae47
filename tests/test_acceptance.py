"""Acceptance battery.

Each criterion prints one PASS line (visible with -s or in failure output)
and asserts its stated exact equality.  The heavy point counts are
computed once per session and shared.
"""

import random
import time
from fractions import Fraction

import pytest

from kleinzeta import counting, gdcohom, hecke, lfunc, thetasupp
from kleinzeta.counting import CM_CURVE, count_klein
from kleinzeta.ffield import BudgetExceeded, build_field
from kleinzeta.poly import cyclic_mul
from kleinzeta.reference import reference_degree10_at_3
from naive_oracle import count_hypersurface_naive

PURITY_PRIMES = (2, 3, 5, 7, 13, 23)


class CountStore:
    """Genuine counts for every (p, k) ffield.field_order accepts; None beyond them."""

    def __init__(self):
        self.counts = {}

    def feasible(self, p, k):
        return self.real(p, k) is not None

    def real(self, p, k):
        key = (p, k)
        if key not in self.counts:
            try:
                self.counts[key] = count_klein(p, k).count
            except BudgetExceeded:
                self.counts[key] = None
        return self.counts[key]


@pytest.fixture(scope="module")
def store():
    return CountStore()


def _report(num, label, elapsed):
    print(f"ACCEPTANCE {num} ({label}): PASS [{elapsed:.1f}s]")


def test_criterion_1_flagship_degree10_identity(store):
    t0 = time.perf_counter()
    target = reference_degree10_at_3()
    counts = [store.real(3, k) for k in range(1, 6)]
    ps = lfunc.counts_to_power_sums(counts, 3)
    from_counts = lfunc.power_sums_to_local_factor(ps)
    assert from_counts.coeffs == target.coeffs, "counting route missed the target factor"
    from_product = hecke.h3_local_factor_product(3)
    assert from_product.coeffs == target.coeffs, "product route missed the target factor"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0, "flagship identity exceeded its 10 minute budget"
    _report(1, "flagship degree-10 identity at p = 3, both routes, exact", elapsed)


def test_criterion_2_trace_identity_sweep(store):
    t0 = time.perf_counter()
    exceptional = {23, 67, 89}  # the p = 1 mod 11 primes below 100
    for p in hecke.primes_up_to(100):
        if p == 11:
            continue
        n = store.real(p, 1)
        even = 1 + p + p * p + p ** 3
        assert n == even - hecke.predicted_power_sum(p, 1), f"trace identity failed at {p}"
        if p in exceptional:
            assert n == even - 5 * p * hecke.ap_f(p)
            assert n != even
        else:
            assert n == even
    elapsed = time.perf_counter() - t0
    assert elapsed <= 900.0, "sweep exceeded its 15 minute budget"
    _report(2, "counts vs trace prediction for all good p <= 100, exact", elapsed)


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    S = gdcohom.klein_form()
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]:
        F = build_field(p, k)
        assert count_klein(p, k).count == count_hypersurface_naive(S, F), f"oracle split at q={F.q}"
    _report(3, "fast counter == naive oracle on q in {2,3,4,5,7,8,9,11,13}",
            time.perf_counter() - t0)


def test_criterion_4_cm_structure():
    t0 = time.perf_counter()
    for p in hecke.primes_up_to(1000):
        a = hecke.ap_f(p)
        assert (a == 0) == (hecke.split_type(p) != "split")
        assert a * a <= 4 * p
    for p in hecke.primes_up_to(500):
        if p == 11:
            continue
        assert hecke.ap_f(p) == p + 1 - counting.count_weierstrass(CM_CURVE, p)
    _report(4, "CM dichotomy + Hasse to 1000, curve oracle to 500, exact",
            time.perf_counter() - t0)


def test_criterion_5_fermat_cover():
    t0 = time.perf_counter()
    assert counting.verify_fermat_cover()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, "degree-11 cover substitution identity, exact symbolic", elapsed)


def test_criterion_6_cohomology_suite():
    t0 = time.perf_counter()
    basis = gdcohom.h3_basis()
    assert basis.dimension == 10
    assert len(basis.pole2_monomials) == 5
    M = gdcohom.alpha_pullback()
    # M^5 = 1 by dense products, the reference for the eigenspace rank sum
    power = [[Fraction(int(i == j)) for j in range(10)] for i in range(10)]
    for _ in range(5):
        power = [[sum((power[i][k] * M[k][j] for k in range(10)), Fraction(0))
                  for j in range(10)] for i in range(10)]
    assert power == [[Fraction(int(i == j)) for j in range(10)] for i in range(10)]
    split = gdcohom.eigenspace_split(M)
    assert split.dims == (2, 2, 2, 2, 2)
    assert split.fil2_dims == (1, 1, 1, 1, 1)
    assert gdcohom.gorenstein_pairing_nondegenerate()

    rng = random.Random(20260808)

    def rand_poly(d, density=0.45):
        terms = {}
        for m in gdcohom.monomials_of_degree(d):
            if rng.random() < density:
                c = rng.randint(-5, 5)
                if c:
                    terms[m] = Fraction(c)
        return gdcohom.CycPoly.make(terms, d)

    # idempotence: re-reducing the reduced representative changes nothing
    for _ in range(100):
        omega = gdcohom.RationalDifferential(rand_poly(4), 3)
        coords = gdcohom.griffiths_reduce(omega)
        pole2 = gdcohom.CycPoly.make(
            {m: c for m, c in zip(basis.pole2_monomials, coords[:5]) if c}, 1)
        pole3 = gdcohom.CycPoly.make(
            {m: c for m, c in zip(basis.pole3_monomials, coords[5:]) if c}, 4)
        again = [a + b for a, b in zip(
            gdcohom.griffiths_reduce(gdcohom.RationalDifferential(pole2, 2)),
            gdcohom.griffiths_reduce(gdcohom.RationalDifferential(pole3, 3)))]
        assert again == coords

    # lift independence: the solver's lift and the generating lift agree
    gens = gdcohom.jacobian_generators()
    for _ in range(100):
        B = [rand_poly(2, 0.5) for _ in range(5)]
        A = gdcohom.CycPoly.make({}, 4)
        for Bi, g in zip(B, gens):
            A = A + Bi * g
        if A.is_zero():
            continue
        omega = gdcohom.RationalDifferential(A, 3)
        assert (gdcohom.griffiths_reduce(omega)
                == gdcohom.griffiths_reduce(omega, first_lift=B))

    _report(6, "cohomology dims/eigenspaces/pairing + 100 random reductions, exact over Q(zeta5)",
            time.perf_counter() - t0)


def test_criterion_7_theta_support_suite():
    t0 = time.perf_counter()
    for p in (11, 3):
        for ty in ("I", "II", "III", "IV"):
            rep = thetasupp.scan_type(p, ty, thetasupp.ScanBox())
            assert rep.status == "certified", (p, ty, rep.claims)
        for v in range(1, 5):
            assert not any(thetasupp.char_sum(p, v))
        assert thetasupp.stabilizer_invariance_check(p)
    assert thetasupp.archimedean_equivariance() == []
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, "theta suite exceeded its 1 minute budget"
    _report(7, "coset certificates at p = 11 and 3, char sums, "
            "exact equivariance at both rotation generators", elapsed)


def test_criterion_8_purity_of_counting_route_factors(store):
    t0 = time.perf_counter()
    for p in PURITY_PRIMES:
        counts = []
        for k in range(1, 6):
            predicted = hecke.predicted_count(p, k)
            if store.feasible(p, k):
                real = store.real(p, k)
                assert real == predicted, f"count/prediction split at ({p},{k})"
                counts.append(real)
            else:
                # only (23, 5) is past the field-size limit (23^5 > LOG_TABLE_MAX_Q);
                # the trace identity supplies it, and it must equal
                # #P^3 - Tr(lambda^5) for the Jacobi eigenvalue over F_23 (f = 1)
                assert (p, k) == (23, 5)
                lam = counting._jacobi_eigenvalue(build_field(23))
                power = lam
                for _ in range(4):
                    power = cyclic_mul(power, lam)
                q = 23 ** 5
                trace = 11 * power[0] - sum(power)  # Tr z^0 = 10, Tr z^j = -1
                assert predicted == 1 + q + q * q + q ** 3 - trace == 266635276859338633185
                counts.append(predicted)
        L = lfunc.power_sums_to_local_factor(lfunc.counts_to_power_sums(counts, p))
        assert lfunc.weil_bound_check(L), f"purity failed at {p}"
    _report(8, "purity (|lambda| = p^1.5, exact) for p in {2,3,5,7,13,23}",
            time.perf_counter() - t0)
