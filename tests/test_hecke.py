from fractions import Fraction

import pytest

from kleinzeta.counting import CM_CURVE, count_weierstrass
from kleinzeta.ffield import build_field, is_prime
from kleinzeta.hecke import (HeckeRecord, ap_f, ap_g, character_twist_sum, chi_dlog,
                             h3_local_factor_product, hecke_record, hecke_table,
                             predicted_count, primes_up_to, satake_power_sum,
                             solve_norm_form, spinor_local_factor, split_type,
                             trace_prediction, write_hecke_csv)
from kleinzeta.lfunc import local_factor_power_sums
from kleinzeta.poly import at_zeta
from kleinzeta.reference import AP_SAMPLES, reference_degree10_at_3

from cyclotomic import CyclotomicNumber
from twist_product import (as_number, chi, rational_value, spinor_product, twist_product,
                           twist_sum)


def test_split_type_examples():
    assert split_type(11) == "ramified"
    assert split_type(3) == "split"
    assert split_type(2) == "inert"
    with pytest.raises(ValueError):
        split_type(15)


def test_primes_up_to_sieve_matches_is_prime():
    # the sieve against a Miller-Rabin test per integer, at every bound up to
    # 10^4 (0, 1, 2 and 3 included, and one below 0)
    bound = 10 ** 4
    primes = [n for n in range(2, bound + 1) if is_prime(n)]
    assert primes_up_to(bound) == primes and len(primes) == 1229
    count = 0
    for b in range(-1, bound + 1):
        count += b >= 2 and is_prime(b)
        assert primes_up_to(b) == primes[:count], b


def test_split_type_matches_legendre():
    for p in primes_up_to(300):
        if p in (2, 11):
            continue
        legendre = pow(-11 % p, (p - 1) // 2, p)
        expected = "split" if legendre == 1 else "inert"
        assert split_type(p) == expected


def test_solve_norm_form_examples():
    assert solve_norm_form(3) == (1, 1)
    assert solve_norm_form(5) == (3, 1)
    assert solve_norm_form(23) == (9, 1)
    with pytest.raises(ValueError):
        solve_norm_form(2)


def test_solve_norm_form_is_a_solution():
    for p in primes_up_to(500):
        if split_type(p) != "split":
            continue
        a, b = solve_norm_form(p)
        assert a > 0 and b > 0 and a * a + 11 * b * b == 4 * p
        assert (a - b) % 2 == 0


def test_distinguished_generator():
    from kleinzeta.hecke import QuadInt, distinguished_generator
    g = distinguished_generator(3)
    assert g == QuadInt(-1, -1)
    assert g.norm == 3 and g.trace == -1
    assert g.residue_at_ramified_prime() in {1, 3, 4, 5, 9}
    with pytest.raises(ValueError):
        QuadInt(1, 2)  # parity broken


def test_ap_f_examples():
    assert ap_f(3) == -1
    assert ap_f(2) == 0
    assert ap_f(5) == -3
    assert ap_f(23) == -9
    for p, val in AP_SAMPLES.items():
        assert ap_f(p) == val


def test_ap_g_examples():
    assert ap_g(3) == 8
    assert ap_g(2) == 0
    assert ap_g(5) == 18


def test_chi_examples():
    z = CyclotomicNumber.zeta_pow
    assert chi(2, 1) == z(5, 1)
    assert chi(3, 1) == z(5, 3)   # 2^8 = 3 mod 11
    assert chi(10, 1) == CyclotomicNumber.one(5)
    assert chi(22, 1).is_zero()
    assert chi_dlog(11) is None


def test_chi_multiplicative():
    for a in range(1, 30):
        for b in range(1, 30):
            if a % 11 and b % 11:
                assert chi(a * b, 1) == chi(a, 1) * chi(b, 1)


def test_character_twist_sum():
    assert character_twist_sum(3, 1) == 0
    assert character_twist_sum(23, 1) == 5
    assert character_twist_sum(2, 5) == 5  # chi^5 is trivial
    assert character_twist_sum(43, 1) == 5  # 43 = -1 mod 11: chi(43) = 1


def test_trace_prediction_examples():
    assert trace_prediction(3) == 0
    assert trace_prediction(23) == -1035
    assert trace_prediction(43) == 0  # inert, a_p = 0
    assert trace_prediction(11) == 0  # chi(11) = 0


def test_the_bad_prime_keeps_its_refusals():
    # no good-reduction local factor at p = 11, though its counts are
    # predicted (lfunc.counts_to_power_sums refuses it too: test_lfunc)
    with pytest.raises(ValueError, match="bad prime"):
        h3_local_factor_product(11)
    for i in range(5):
        with pytest.raises(ValueError, match="bad prime"):
            spinor_local_factor(11, i)


def test_cm_dichotomy_and_hasse():
    for p in primes_up_to(1000):
        a = ap_f(p)
        assert (a == 0) == (split_type(p) != "split")
        assert a * a <= 4 * p


def test_curve_oracle_agreement():
    for p in primes_up_to(500):
        if p == 11:
            continue
        F = build_field(p)
        assert ap_f(p) == p + 1 - count_weierstrass(CM_CURVE, F)


def test_h3_product_at_3_is_target():
    assert h3_local_factor_product(3).coeffs == reference_degree10_at_3().coeffs


def test_h3_product_inert_prime_is_even_polynomial():
    L = h3_local_factor_product(2)
    assert L.coeffs == (1,) + (0,) * 9 + (2 ** 15,)
    assert all(c == 0 for i, c in enumerate(L.coeffs) if i % 2 == 1)


def test_h3_product_at_23_is_fifth_power():
    # chi(23) = 1 so all five twisted factors coincide
    base = [1, 9 * 23, 23 ** 3]
    prod = [1]
    for _ in range(5):
        new = [0] * (len(prod) + 2)
        for i, x in enumerate(prod):
            for j, y in enumerate(base):
                new[i + j] += x * y
        prod = new
    assert h3_local_factor_product(23).coeffs == tuple(prod)


def test_h3_product_satisfies_invariants_up_to_2000():
    from kleinzeta.lfunc import weil_bound_check
    for p in primes_up_to(2000):
        if p == 11:
            continue
        L = h3_local_factor_product(p)
        # trace consistency: -c_1 equals the predicted first power sum;
        # the constructor has already enforced the functional equation
        assert -L.coeffs[1] == trace_prediction(p)
        assert local_factor_power_sums(L, 1)[0] == trace_prediction(p)
        assert weil_bound_check(L)


def test_h3_product_matches_the_cyclotomic_product():
    # the closed form against the five twisted quadratics multiplied out in
    # Q(zeta_5), at every good p <= 2000: chi(p) = 1, chi(p) != 1, split, inert
    for p in primes_up_to(2000):
        if p != 11:
            assert h3_local_factor_product(p) == twist_product(p), p


def test_twist_sum_and_prediction_match_the_cyclotomic_sum():
    # p = 11 included: chi(11) = 0, so both sums are 0
    for p in primes_up_to(3000):
        for k in range(1, 13):
            s = twist_sum(p, k)
            assert character_twist_sum(p, k) == s, (p, k)
            q = p ** k
            expected = 1 + q + q * q + q ** 3
            if s:
                expected -= q * satake_power_sum(p, k) * s
            assert predicted_count(p, k) == expected, (p, k)


def test_predicted_count_matches_lefschetz_shape():
    # inert p: odd power sums vanish, so counts equal the even part at odd k
    assert predicted_count(2, 1) == 15
    assert predicted_count(2, 3) == 1 + 8 + 64 + 512
    assert predicted_count(3, 1) == 40


def test_spinor_factor_examples():
    # (1 + T + 3T^2)(1 - 8T + 27T^2) at p = 3, i = 0
    # (1 + T + 3T^2)(1 - 8T + 27T^2) at p = 3, i = 0: every coefficient at z^0
    f = spinor_local_factor(3, 0)
    expected = [1, -7, 22, 3, 81]
    assert f == [[c, 0, 0, 0, 0] for c in expected]
    assert [rational_value(as_number(c)) for c in f] == [Fraction(v) for v in expected]
    # at p = 3, d = dlog_2(3) = 8 and i = 1: coefficient k sits at z^(8k mod 5)
    assert [c.index(next(filter(None, c))) for c in spinor_local_factor(3, 1)] == [0, 3, 1, 4, 2]

    inert = spinor_local_factor(2, 1)
    assert not any(at_zeta(inert[1])) and not any(at_zeta(inert[3]))

    with pytest.raises(ValueError):
        spinor_local_factor(11, 0)
    with pytest.raises(ValueError):
        spinor_local_factor(3, 5)


def test_spinor_product_over_twists_is_integral():
    for p in (3, 7, 23):
        prod = [CyclotomicNumber.one(5)]
        for i in range(5):
            fac = [as_number(c) for c in spinor_local_factor(p, i)]
            new = [CyclotomicNumber.zero(5) for _ in range(len(prod) + 4)]
            for a, x in enumerate(prod):
                for b, y in enumerate(fac):
                    new[a + b] = new[a + b] + x * y
            prod = new
        for c in prod:
            r = rational_value(c)
            assert r is not None and r.denominator == 1


def test_spinor_factor_matches_the_cyclotomic_product():
    # the integer quartic at T -> chi^i(p) T against its two twisted
    # quadratics multiplied out in Q(zeta_5), at every good p <= 2000
    for p in primes_up_to(2000):
        if p != 11:
            for i in range(5):
                got = [as_number(c) for c in spinor_local_factor(p, i)]
                assert got == spinor_product(p, i), (p, i)


def test_hecke_records_and_csv(tmp_path):
    rows = hecke_table(100)
    assert [r.p for r in rows] == primes_up_to(100)
    rec3 = hecke_record(3)
    assert rec3.split_type == "split" and (rec3.a, rec3.b) == (1, 1)
    assert rec3.ap_f == -1 and rec3.ap_g == 8 and rec3.chi_dlog == 8

    with pytest.raises(ArithmeticError):
        HeckeRecord(2, "inert", 0, 0, 1, 0, 1)   # CM vanishing broken
    with pytest.raises(ArithmeticError):
        HeckeRecord(3, "split", 1, 1, 9, 0, 8)   # Hasse broken

    out = tmp_path / "hecke.csv"
    n = write_hecke_csv(out, 50)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,split_type,a,b,ap_f,ap_g,chi_dlog"
    assert len(lines) == n + 1
    assert lines[1].startswith("2,inert,0,0,0,0,")
