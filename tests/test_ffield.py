import math
import random

import numpy as np
import pytest

from kleinzeta.ffield import (LOG_TABLE_MAX_Q, BudgetExceeded, FieldDescriptor, _poly_mulmod,
                              _poly_powmod, build_field, is_primitive, is_prime, log_exp_tables)
from naive_oracle import digitwise_add, log_exp_mul


# reference arithmetic: coefficient lists through the build-time polynomial
# helpers, and the index encoding sum c_i p^i written out digit by digit

def _coeffs(F, idx):
    """Little-endian coefficient list of the element with this index."""
    out = []
    for _ in range(F.k):
        idx, c = divmod(idx, F.p)
        out.append(c)
    return out


def _index(F, coeffs):
    idx = 0
    for c in reversed(list(coeffs)):
        idx = idx * F.p + c % F.p
    return idx


def _mul(F, a, b):
    return _index(F, _poly_mulmod(_coeffs(F, a), _coeffs(F, b), F.modulus, F.p))


def _pow(F, a, e):
    return _index(F, _poly_powmod(_coeffs(F, a), e, F.modulus, F.p))


def _add(F, a, b):
    return _index(F, [x + y for x, y in zip(_coeffs(F, a), _coeffs(F, b))])


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (3, 3), (7, 2), (13, 1)])
def test_constant_powmod_matches_square_and_multiply(p, k):
    # a constant's powers stay in F_p: the list-polynomial square-and-multiply
    # must equal the integer one, 0, the empty list and e = 0 included
    modulus = build_field(p, k).modulus
    for base in [[]] + [[c] for c in range(p)]:
        for e in (0, 1, 2, 3, p - 1, p, p ** k - 1, 5 * p + 3):
            c = pow(base[0] if base else 0, e, p)
            assert _poly_powmod(base, e, modulus, p) == ([c] if c else [])


def test_build_field_prime_field():
    # x + 1: x = -1 = 2 generates F_3^*; over F_23, x + 1 fails (x = -1 has
    # order 2) and x + 2 holds (x = 21 has order 22)
    F = build_field(3, 1)
    assert F.q == 3 and F.modulus == (1, 1)
    assert build_field(23).modulus == (2, 1)


def test_build_field_f4_modulus():
    # the unique irreducible quadratic over F_2
    assert build_field(2, 2).modulus == (1, 1, 1)


def test_build_field_f243_modulus_is_irreducible():
    # x^5 + 2 x^4 + 1, the lex-first irreducible modulus and primitive too,
    # so the p = 3 tower's field is the same under either search
    F = build_field(3, 5)
    assert F.modulus == (1, 0, 0, 0, 2, 1)
    assert is_primitive(F.modulus, 3)


@pytest.mark.parametrize("modulus, p", [
    ((1, 0, 1), 3),        # x^2 + 1, irreducible over F_3: x has order 4, not 8
    ((1, 2, 1), 3),        # (x + 1)^2
    ((0, 1, 1), 3),        # x^2 + x: c_0 = 0, x is no unit
    ((2, 0, 1), 3),        # x^2 - 1 = (x - 1)(x + 1): the norm test holds, x has order 2
    ((1, 0, 0, 1), 2),     # x^3 + 1 = (x + 1)(x^2 + x + 1): x^7 = x, not 1
    ((2, 0, 1), 5),        # x^2 + 2, irreducible over F_5: x^2 = 3, so x has order 8, not 24
    ((1, 1), 23),          # x = -1 has order 2 in F_23^*
])
def test_is_primitive_rejects(modulus, p):
    assert not is_primitive(modulus, p)


def test_build_field_rejects_bad_input():
    with pytest.raises(ValueError):
        build_field(8, 1)       # not prime
    with pytest.raises(ValueError):
        build_field(3, 0)


@pytest.mark.parametrize("p, k", [(2, 21), (1048583, 1), (2, 41)])
def test_build_field_refuses_fields_past_the_log_exp_limit(p, k):
    # the one field-size limit: every kernel needs the O(q) log/exp vectors
    with pytest.raises(BudgetExceeded, match=f"q = {p}\\^{k} exceeds the log/exp limit "
                                             f"{LOG_TABLE_MAX_Q}$"):
        build_field(p, k)


def test_build_field_accepts_the_log_exp_limit():
    F = build_field(2, 20)
    assert F.q == LOG_TABLE_MAX_Q and is_primitive(F.modulus, 2)


def test_log_exp_tables_refuse_by_the_one_size_rule():
    # a hand-built descriptor past the limit gets field_order's refusal
    F = FieldDescriptor(2, 21, (1,) + (0,) * 19 + (1, 1))
    with pytest.raises(BudgetExceeded, match=f"q = 2\\^21 exceeds the log/exp limit "
                                             f"{LOG_TABLE_MAX_Q}$"):
        log_exp_tables(F)


def _lexicographic_modulus(p, k):
    """The reference for the modulus build_field returns: the first monic
    modulus in ascending lexicographic order of (c_0, ..., c_(k-1)), c_0
    most significant, whose x, multiplied by x one step at a time, first
    returns to 1 after exactly q - 1 steps.

    One step is the shift of the coefficients plus the top one times
    x^k = -(c_0 + ... + c_(k-1) x^(k-1)); every candidate walks at once,
    and one that returns to 1 early leaves the walk.  A unit's order is at
    most q - 1, so the candidates left at step q - 1 are exactly those whose
    x has order q - 1.  Candidates with c_0 = 0 are divisible by x, which is
    then no unit and never returns to 1: they start outside the walk."""
    q = p ** k
    coeffs = np.arange(p ** (k - 1), q)[:, None] // p ** np.arange(k - 1, -1, -1) % p
    power = np.zeros_like(coeffs)
    power[:, 0] = 1
    weight = p ** np.arange(k)
    for n in range(1, q):
        top = power[:, -1:]
        power = (np.hstack([np.zeros_like(top), power[:, :-1]]) - top * coeffs) % p
        one = power @ weight == 1
        if n < q - 1:
            power, coeffs = power[~one], coeffs[~one]
    assert one.all() and len(coeffs)
    return tuple(coeffs[0].tolist()) + (1,)


@pytest.mark.parametrize("p,k", [(2, k) for k in range(2, 11)] + [(3, k) for k in range(2, 9)]
                         + [(5, k) for k in range(2, 5)] + [(7, 2), (7, 3), (13, 2), (13, 3),
                                                            (23, 2)])
def test_build_field_modulus_matches_full_search(p, k):
    assert build_field(p, k).modulus == _lexicographic_modulus(p, k)


def test_build_field_deterministic():
    assert build_field(3, 5).modulus == build_field(3, 5).modulus
    assert build_field(7, 3).modulus == build_field(7, 3).modulus


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 1), (7, 2), (3, 4)])
def test_fermat_little_exhaustive(p, k):
    F = build_field(p, k)
    for a in range(1, F.q):
        assert _pow(F, a, F.q - 1) == 1


def test_extension_arithmetic_against_modulus():
    # in F_9 = F_3[x]/(x^2 + x + 2) the root squares to -x - 2 = 2x + 1
    # (x^2 + 1, the lex-first irreducible modulus, fails: its x has order 4)
    F = build_field(3, 2)
    assert F.modulus == (2, 1, 1)
    x = _index(F, [0, 1])
    assert _mul(F, x, x) == _index(F, [1, 2])


def _scalar_walk(F):
    """The walk of x, the root of the modulus, one polynomial product at a
    time: the reference for the vectorized log/exp build."""
    x = _index(F, _poly_mulmod([0, 1], [1], F.modulus, F.p))  # reduced: x = -c_0 at k = 1
    exp = []
    cur = 1
    for _ in range(F.q - 1):
        exp.append(cur)
        cur = _mul(F, cur, x)
    assert cur == 1
    log = [0] * F.q
    for e, idx in enumerate(exp):
        log[idx] = e
    return log, exp


@pytest.mark.parametrize("p,k", [(2, k) for k in range(1, 11)] + [(3, k) for k in range(1, 9)]
                         + [(5, k) for k in range(1, 5)] + [(7, k) for k in range(1, 4)]
                         + [(13, 2)])
def test_log_exp_tables_match_scalar_walk(p, k):
    F = build_field(p, k)
    log, exp = log_exp_tables(F)
    ref_log, ref_exp = _scalar_walk(F)
    assert exp.tolist() == ref_exp
    assert log.tolist() == ref_log


@pytest.mark.parametrize("p,k", [(2, 10), (3, 5), (5, 5)]
                         + [(p, 2) for p in range(43, 1025, 11) if is_prime(p)]  # p = 10 mod 11
                         + [(p, 1) for p in range(23, 2000, 11) if is_prime(p)])  # p = 1 mod 11
def test_exp_is_a_permutation_on_the_fields_the_counter_builds(p, k):
    # x generates F_q^*: its powers x^0 .. x^(q-2) are the q - 1 nonzero
    # indices, each once
    log, exp = log_exp_tables(build_field(p, k))
    assert np.array_equal(np.sort(exp), np.arange(1, p ** k))


def test_tables_match_scalar_ops():
    # log/exp products and digit sums against polynomial * and +, over F_27
    # and over F_32, where digitwise_add is a bitwise xor
    rng = random.Random(5)
    for F in (build_field(3, 3), build_field(2, 5)):
        i = np.array([rng.randrange(F.q) for _ in range(300)] + [0, 0, 5])
        j = np.array([rng.randrange(F.q) for _ in range(300)] + [0, 7, 0])
        products = log_exp_mul(F, i, j)
        sums = digitwise_add(F, i, j)
        for a, b, prod, total in zip(i.tolist(), j.tolist(), products.tolist(), sums.tolist()):
            assert prod == _mul(F, a, b)
            assert total == _add(F, a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101, 1009])
def test_prime_field_products_match_the_table_route(p):
    # at k = 1 an index is its residue and log_exp_mul multiplies residues;
    # the table route exp[(log a + log b) mod (p - 1)], zeros included
    F = build_field(p)
    log, exp = log_exp_tables(F)
    rng = random.Random(p)
    grid = np.arange(p, dtype=np.int64)
    if p <= 101:
        a, b = np.repeat(grid, p), np.tile(grid, p)
    else:
        a = np.array([rng.randrange(p) for _ in range(2000)] + [0, 0, 5, p - 1])
        b = np.array([rng.randrange(p) for _ in range(2000)] + [0, 7, 0, p - 1])
    table = np.where((a == 0) | (b == 0), 0, exp[(log[a] + log[b]) % (p - 1)])
    assert log_exp_mul(F, a, b).tolist() == table.tolist()
    # broadcasting a scalar against a vector, as the oracle's monomials do
    assert log_exp_mul(F, 3 % p, grid).tolist() == (3 * grid % p).tolist()


@pytest.mark.parametrize("p,k", [(3, 12), (13, 5), (5, 3), (2, 6)])
def test_digitwise_add_of_a_prime_field_constant(p, k):
    # a scalar addend c in [0, p) takes the digit-0 path; it must equal the
    # loop over all k digits on random index arrays, and stay xor for p = 2
    F = build_field(p, k)
    rng = np.random.default_rng(p * 100 + k)
    a = rng.integers(0, F.q, size=2000)
    a[:2] = 0, F.q - 1

    def all_digits(a, c):
        out, weight = np.zeros_like(a), 1
        for _ in range(F.k):
            out += (a // weight + c // weight) % F.p * weight
            weight *= F.p
        return out

    for c in range(p):
        got = digitwise_add(F, a, c)
        assert got.tolist() == (a ^ c if p == 2 else all_digits(a, c)).tolist(), c


def test_prime_predicate():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)
    # trial division settles n < 41^2 alone; 41^2 = 1681 is the first composite
    # that needs Miller-Rabin
    assert [n for n in range(2, 2000) if is_prime(n)] == [
        n for n in range(2, 2000) if all(n % d for d in range(2, math.isqrt(n) + 1))]
