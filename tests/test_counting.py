import itertools
from fractions import Fraction

import numpy as np
import pytest

from kleinzeta import counting, ffield, hecke
from kleinzeta.counting import (NAIVE_POINT_BUDGET, BadReduction, BudgetExceeded, CM_CURVE,
                                H3_CLASS, CountRecord, WeierstrassCurve, _cover_exponents,
                                count_hypersurface_naive, count_klein, count_weierstrass,
                                fermat_cover_substitution, verify_fermat_cover)
from kleinzeta.ffield import (LOG_TABLE_MAX_Q, build_field, digitwise_add, is_prime,
                              log_exp_tables)
from kleinzeta.gdcohom import CycPoly, klein_form
from cyclotomic import CyclotomicNumber
from slice_sum import count_klein_slice, odd_slice_sum

# independently frozen oracle values (naive enumeration, plus the trace rule
# cross-checked at the curve level)
KNOWN_COUNTS = {(3, 1): 40, (3, 2): 820, (2, 1): 15, (2, 2): 85, (5, 1): 156, (23, 1): 13755}


def test_klein_form_shape():
    S = klein_form()
    assert S.degree == 3 and len(S.terms) == 5
    assert {len(e) for e, _ in S.terms} == {5}


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (2, 1), (2, 2), (5, 1)])
def test_fast_counter_known_values(p, k):
    assert count_klein(p, k).count == KNOWN_COUNTS[(p, k)]


def test_fast_counter_f23_equals_naive_and_prediction():
    n = count_klein(23, 1).count
    assert n == KNOWN_COUNTS[(23, 1)]
    assert n == count_hypersurface_naive(klein_form(), build_field(23))


@pytest.mark.parametrize("q,p,k", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1),
                                   (7, 7, 1), (8, 2, 3), (9, 3, 2), (11, 11, 1), (13, 13, 1),
                                   (16, 2, 4), (25, 5, 2), (27, 3, 3), (32, 2, 5)])
def test_fast_equals_naive(q, p, k):
    assert count_klein(p, k).count == count_hypersurface_naive(klein_form(), build_field(p, k))


def test_counts_past_the_tower_match_prediction():
    # F_729, F_625 and F_6561 were out of reach of the earlier fiber counter
    for p, k in [(3, 6), (5, 4), (3, 8)]:
        assert count_klein(p, k).count == hecke.predicted_count(p, k)


def test_prime_field_counts_against_tableless_loop():
    # a third route sharing nothing with the package's field tables:
    # plain integers mod p over projective representatives
    def plain_count(p):
        total = 0
        reps = []
        for lead in range(5):
            import itertools
            for tail in itertools.product(range(p), repeat=4 - lead):
                reps.append((0,) * lead + (1,) + tail)
        for pt in reps:
            s = sum(pt[i] * pt[i] * pt[(i + 1) % 5] for i in range(5))
            total += s % p == 0
        return total

    for p in (2, 3, 5, 7):
        assert count_klein(p, 1).count == plain_count(p)


def test_hyperplane_counts_are_projective_spaces():
    # x0 = 0 cuts out P^3; the same holds for the cube of the coordinate
    x0 = CycPoly.make({(1, 0, 0, 0, 0): 1})
    x0cubed = CycPoly.make({(3, 0, 0, 0, 0): 1})
    for p, k in [(3, 1), (2, 2), (5, 1)]:
        F = build_field(p, k)
        q = F.q
        expected = q ** 3 + q ** 2 + q + 1
        assert count_hypersurface_naive(x0, F) == expected
        assert count_hypersurface_naive(x0cubed, F) == expected


def test_naive_oracle_reads_coefficients():
    # x0^2 - x1^2 = (x0 - x1)(x0 + x1): two hyperplanes meeting in a P^2.
    # For q = 3 mod 4, x0^2 + x1^2 would cut out that P^2 alone.
    form = CycPoly.make({(2, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0): -1})
    for p, k in [(3, 1), (7, 1), (3, 3)]:
        q = p ** k
        expected = 2 * (q ** 3 + q ** 2 + q + 1) - (q ** 2 + q + 1)
        assert count_hypersurface_naive(form, build_field(p, k)) == expected


def _quadratic_slice_sum(F):
    """sum_{x3 != 0} chi(-x3) R(x3), one x3 row of O(q) vectors at a time:
    the O(q^2) reference for the closed form of slice_sum.odd_slice_sum.

    With x3 = g^l and x4 = g^j, a root of x3 x4^4 + 1 = 4 x3^3 x4 is a j
    with zech[l + 4j] = log(4) + 3l + j (mod q - 1), where
    g^zech[n] = g^n + 1; x4 = 0 is never a root.  chi(-x3) = (-1)^(l + m/2).
    """
    log, exp = log_exp_tables(F)
    m = F.q - 1
    plus_one = digitwise_add(F, exp, 1)
    zech = np.where(plus_one == 0, -1, log[plus_one])  # -1: g^n + 1 = 0
    zech_ext = np.tile(zech, 5)                        # l + 4j < 5m unreduced
    ramp = np.tile(np.arange(m), 2)
    log4 = int(log[4 % F.p])
    total = 0
    for l in range(m):
        start = (log4 + 3 * l) % m
        roots = int(np.count_nonzero(zech_ext[l:l + 4 * m:4] == ramp[start:start + m]))
        total += roots if (l + m // 2) % 2 == 0 else -roots
    return total


# every odd field the suite counts: the odd primes to 100, the fields
# of the naive-oracle and prediction tests, the towers of criterion 8 that
# fit the O(q^2) reference, and F_23, F_67, F_89, F_243, F_529, F_3125,
# where gcd(11, q - 1) = 11
_ODD_COUNTED = sorted({(p, 1) for p in range(3, 101) if is_prime(p)}
                      | {(3, k) for k in (1, 2, 3, 4, 5, 6, 8)} | {(5, k) for k in range(1, 6)}
                      | {(7, k) for k in range(1, 6)} | {(13, k) for k in range(1, 5)}
                      | {(23, k) for k in range(1, 4)})


@pytest.mark.parametrize("p,k", _ODD_COUNTED)
def test_odd_slice_sum_equals_quadratic_reference(p, k):
    F = build_field(p, k)
    assert odd_slice_sum(F) == _quadratic_slice_sum(F)


def test_odd_slice_sum_is_minus_one_off_the_degree_11_fibres():
    # for q != 1 mod 11 the exponent map is a bijection and the sum is -1,
    # i.e. t_1 = 0; every odd prime power q <= 3^8
    fields = [(p, k) for p in range(3, 3 ** 8 + 1) if is_prime(p)
              for k in range(1, 9) if p ** k <= 3 ** 8]
    checked = 0
    for p, k in fields:
        if (p ** k - 1) % 11:
            assert odd_slice_sum(build_field(p, k)) == -1, (p, k)
            checked += 1
    assert checked == 791


# both characteristics, p = 11, every f = ord_11(p) in {1, 2, 5, 10}, and
# powers lambda^r with r = k/f up to 4: (2, 10) has f = 10; (3, 5), (3, 10)
# and (5, 5) have f = 5; 43, 109 and 131 have f = 2; 23, 67, 89 and 199 f = 1
_JACOBI_AGAINST_SLICE = sorted({(p, 1) for p in range(2, 200) if is_prime(p)}
                               | {(p, 2) for p in range(2, 200) if is_prime(p)}
                               | {(2, k) for k in range(1, 17)} | {(3, k) for k in range(1, 11)}
                               | {(5, k) for k in range(1, 7)} | {(7, k) for k in range(1, 6)}
                               | {(11, k) for k in range(1, 6)} | {(13, k) for k in range(1, 5)}
                               | {(23, k) for k in range(1, 5)})


def test_jacobi_kernel_equals_slice_reference():
    for p, k in _JACOBI_AGAINST_SLICE:
        assert count_klein(p, k).count == count_klein_slice(build_field(p, k)), (p, k)


def test_the_ten_h3_classes_are_the_multiples_of_one():
    # y_j -> zeta^(d_j) y_j fixes every x_i = prod_j y_j^(E_ij) iff E d = 0
    # mod 11; the Fermat class a, on which d acts by zeta^(a . d), is
    # deck-invariant iff a . d = 0 on that kernel, and lies in H^3 iff every
    # a_j != 0 and sum a = 0
    E = np.array(_cover_exponents())
    every = np.array(list(itertools.product(range(11), repeat=5)))
    deck = every[(every @ E.T % 11 == 0).all(axis=1)]
    basis, span = [], {(0,) * 5}
    for d in map(tuple, deck.tolist()):
        if d not in span:
            basis.append(d)
            span = {tuple((s + c * x) % 11 for s, x in zip(v, d)) for v in span
                    for c in range(11)}
    assert len(span) == len(deck) == 11 ** 3
    invariant = every[(every @ np.array(basis).T % 11 == 0).all(axis=1)]
    h3 = invariant[(invariant != 0).all(axis=1) & (invariant.sum(axis=1) % 11 == 0)]
    assert sorted(map(tuple, h3.tolist())) == sorted(
        tuple(t * a % 11 for a in H3_CLASS) for t in range(1, 11))


def test_no_table_off_the_degree_11_fibres(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"field built or table read for {args!r}")

    ffield._log_exp_cached.cache_clear()
    for module in (ffield, counting):
        monkeypatch.setattr(module, "build_field", refuse)
        monkeypatch.setattr(module, "log_exp_tables", refuse)
    tried = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 29, 31) for k in range(1, 21)
             if p ** k <= LOG_TABLE_MAX_Q and (p ** k - 1) % 11]
    for p, k in tried:
        q = p ** k
        assert count_klein(p, k).count == 1 + q + q * q + q ** 3
    assert len(tried) == 68
    assert ffield._log_exp_cached.cache_info().currsize == 0


def test_the_p3_tower_walks_only_f243(monkeypatch):
    built = []

    def recording_build_field(p, k=1):
        built.append((p, k))
        return build_field(p, k)

    monkeypatch.setattr(counting, "build_field", recording_build_field)
    ffield._log_exp_cached.cache_clear()
    for k in range(1, 6):
        assert count_klein(3, k).count == hecke.predicted_count(3, k)
    assert built == [(3, 5)]
    info = ffield._log_exp_cached.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    ffield._log_exp_cached(3, 5, build_field(3, 5).modulus)  # the one entry is F_243
    assert ffield._log_exp_cached.cache_info().hits == info.hits + 1


def test_jacobi_kernel_checks_purity(monkeypatch):
    # a log vector off by one on every nonzero element breaks chi's
    # multiplicativity, and the Jacobi product is no longer pure
    def shifted(F):
        log, exp = ffield.log_exp_tables(F)
        return np.where(np.arange(F.q) == 0, 0, (log + 1) % (F.q - 1)), exp

    monkeypatch.setattr(counting, "log_exp_tables", shifted)
    with pytest.raises(ArithmeticError, match="not pure of weight 3"):
        count_klein(23, 1)


@pytest.mark.parametrize("p,k,message", [
    (8, 1, "p = 8 is not prime"), (3, 0, "extension degree must be >= 1"),
    (23, 5, f"q = 23^5 exceeds the log/exp limit {LOG_TABLE_MAX_Q}"),
    (2, 21, f"q = 2^21 exceeds the log/exp limit {LOG_TABLE_MAX_Q}")])
def test_count_klein_refuses_through_build_field(p, k, message):
    # count_klein builds no field for these (p, k), but refuses each by the
    # size rule build_field reads, ffield.field_order: same type, same message
    refusals = []
    for fn in (count_klein, build_field):
        with pytest.raises(ValueError) as exc:
            fn(p, k)
        refusals.append((type(exc.value), str(exc.value)))
    expected = BudgetExceeded if "limit" in message else ValueError
    assert refusals == [(expected, message)] * 2


def test_naive_oracle_rejects_the_zero_form():
    with pytest.raises(ValueError, match="zero form has no degree"):
        count_hypersurface_naive(CycPoly.make({}), build_field(3))


@pytest.mark.parametrize("coeff", [Fraction(1, 2), CyclotomicNumber.zeta_pow(5, 1)])
def test_naive_oracle_rejects_non_integer_coefficients(coeff):
    form = CycPoly.make({(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): coeff})
    with pytest.raises(ValueError, match="not an integer"):
        count_hypersurface_naive(form, build_field(3))


def test_naive_oracle_rejects_mixed_exponent_lengths():
    form = CycPoly.make({(1, 0, 0, 0, 0): 1, (0, 1, 0): 1})
    with pytest.raises(ValueError, match="mixed length"):
        count_hypersurface_naive(form, build_field(3))


def test_budget_enforced():
    # #P^4(F_43) = 3500201 projective points, past NAIVE_POINT_BUDGET
    with pytest.raises(BudgetExceeded, match="3500201 projective points exceed the budget "
                                             f"{NAIVE_POINT_BUDGET}$"):
        count_hypersurface_naive(klein_form(), build_field(43))


def test_default_budget_is_the_log_exp_cap(monkeypatch):
    # one limit: field_order refuses a field past the log/exp cap, and no
    # modulus is searched
    monkeypatch.setattr(ffield, "is_irreducible", lambda *a: pytest.fail("modulus searched"))
    with pytest.raises(BudgetExceeded, match=f"q = 23\\^5 exceeds the log/exp limit "
                                             f"{LOG_TABLE_MAX_Q}$"):
        count_klein(23, 5)


def test_count_record_bound():
    with pytest.raises(ArithmeticError):
        CountRecord(3, 1, 10 ** 9, "slice-chi")


def test_weierstrass_counts():
    assert count_weierstrass(CM_CURVE, build_field(3)) == 5
    assert count_weierstrass(CM_CURVE, build_field(5)) == 9
    assert count_weierstrass(CM_CURVE, build_field(2)) == 3


def test_weierstrass_hasse_bound():
    for p in (3, 5, 7, 13, 23, 97, 199):
        F = build_field(p)
        n = count_weierstrass(CM_CURVE, F)
        assert (p + 1 - n) ** 2 <= 4 * p


def test_weierstrass_bad_reduction():
    assert CM_CURVE.discriminant == -11 ** 3
    with pytest.raises(BadReduction):
        count_weierstrass(CM_CURVE, build_field(11))


def _direct_weierstrass_count(E, F):
    # the naive oracle on the projective cubic; (0 : 1 : 0) is among its points
    return count_hypersurface_naive(E.projective_form(), F)


def test_weierstrass_generic_curve_matches_direct_enumeration():
    E = WeierstrassCurve(1, 0, 1, -1, 2)   # discriminant -2262 = -2*3*13*29
    for p in (5, 7, 17):
        F = build_field(p)
        assert count_weierstrass(E, F) == _direct_weierstrass_count(E, F)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_weierstrass_extension_fields_match_direct_enumeration(p, k):
    F = build_field(p, k)
    # CM_CURVE has discriminant -11^3, the second curve -6242 = -2*3121
    for E in (CM_CURVE, WeierstrassCurve(1, 1, 1, 2, -3)):
        assert count_weierstrass(E, F) == _direct_weierstrass_count(E, F)


@pytest.mark.parametrize("k", range(1, 9))
def test_weierstrass_char2_matches_cm_route(k):
    # at p = 2 count_weierstrass runs the naive oracle, so the independent
    # check is the CM route: #E(F_2^k) = 2^k + 1 - (alpha^k + beta^k)
    expected = 2 ** k + 1 - hecke.satake_power_sum(2, k)
    assert count_weierstrass(CM_CURVE, build_field(2, k)) == expected


def test_fermat_cover_identity():
    assert verify_fermat_cover()


def test_fermat_cover_substitution_shape():
    sub = fermat_cover_substitution()
    # each substituted variable has degree 17, so the image has degree 51
    assert sub.degree == 51
    assert sub.dict()[(8, 8, 8, 19, 8)] == 1  # image of x0^2 x1
    assert len(sub.terms) == 5
