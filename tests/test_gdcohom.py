import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kleinzeta.gdcohom import (CycPoly, RationalDifferential, alpha_pullback, degree_data,
                               eigenspace_split, fil2_eigenvector_map, gorenstein_pairing_matrix,
                               gorenstein_pairing_nondegenerate, griffiths_reduce, h3_basis,
                               jacobian_generators, klein_form, monomial, monomials_of_degree)
from kleinzeta.linalg import rank

import gauss_jordan
from cyclotomic import CyclotomicNumber
from ideal_ops import harmonic, reduce_via, scale, times


def rand_poly(rng, d, density=0.5, bound=4):
    terms = {}
    for m in monomials_of_degree(d):
        if rng.random() < density:
            c = rng.randint(-bound, bound)
            if c:
                terms[m] = Fraction(c)
    return CycPoly.make(terms, d)


def _lift(A):
    """The five B_i with A = sum_i B_i dS/dx_i, read off DegreeData.split;
    None when a complement coordinate survives (A is off the ideal)."""
    coords, lift, den = degree_data(A.degree).split(A)
    if any(c != 0 for c in coords):
        return None
    return [scale(B, Fraction(1, den)) for B in lift]


def test_jacobian_generators():
    gens = jacobian_generators()
    assert len(gens) == 5
    assert gens[0].dict() == {(1, 1, 0, 0, 0): Fraction(2), (0, 0, 0, 0, 2): Fraction(1)}
    for i, g in enumerate(gens):
        assert g.degree == 2
        # cyclic shifts of each other
        assert g.rotate_vars() == gens[(i + 1) % 5]


def test_graded_dims_hilbert_function():
    dims = [degree_data(d).quotient_dim for d in range(8)]
    assert dims == [1, 5, 10, 10, 5, 1, 0, 0]


def test_degree_one_complement_is_all_variables():
    assert degree_data(1).complement == monomials_of_degree(1)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_degree_data_lists_each_degree_once(d, monkeypatch):
    # DegreeData(d) enumerates the monomials of degree d and of degree d - 2
    # once each; the generator tags and the ideal rows share the second list
    from kleinzeta import gdcohom

    listed = []
    enumerate_monomials = gdcohom.monomials_of_degree
    monkeypatch.setattr(gdcohom, "monomials_of_degree",
                        lambda e: listed.append(e) or enumerate_monomials(e))
    data = gdcohom.DegreeData(d)
    assert sorted(listed) == [d - 2, d]
    assert data.complement == degree_data(d).complement


def test_lift_examples():
    gens = jacobian_generators()
    A = times(monomial((2, 0, 0, 0, 0)), gens[0])
    B = _lift(A)
    assert B is not None
    recomposed = CycPoly.make({}, 4)
    for Bi, g in zip(B, gens):
        recomposed = recomposed + times(Bi, g)
    assert recomposed == A

    assert _lift(monomial((1, 0, 0, 0, 0))) is None  # J_1 = 0

    rng = random.Random(9)
    for _ in range(3):
        A6 = rand_poly(rng, 6)
        if A6.is_zero():
            continue
        B6 = _lift(A6)  # (R/J)_6 = 0, so everything lifts
        assert B6 is not None


def test_griffiths_reduce_examples():
    A = CycPoly.make({(3, 1, 0, 0, 0): Fraction(2), (2, 0, 0, 0, 2): Fraction(1)})
    coords = griffiths_reduce(RationalDifferential(A, 3))
    assert coords == [Fraction(1)] + [Fraction(0)] * 9  # x0 Omega / S^2

    x1 = monomial((0, 1, 0, 0, 0))
    coords = griffiths_reduce(RationalDifferential(x1, 2))
    assert coords == [Fraction(0), Fraction(1)] + [Fraction(0)] * 8

    # two lifts of dS_0 * dS_1 give the same class
    gens = jacobian_generators()
    prod = times(gens[0], gens[1])
    via0 = reduce_via([gens[1]] + [CycPoly.make({}, 2)] * 4, 3)
    via1 = reduce_via([CycPoly.make({}, 2), gens[0]] + [CycPoly.make({}, 2)] * 3, 3)
    assert via0 == via1 == griffiths_reduce(RationalDifferential(prod, 3))


def test_degree_balance_enforced():
    with pytest.raises(ValueError):
        RationalDifferential(monomial((1, 0, 0, 0, 0)), 3)
    with pytest.raises(ValueError):
        RationalDifferential(monomial((1, 0, 0, 0, 0)), 1)


def test_reduce_linearity():
    rng = random.Random(31)
    for _ in range(10):
        w1, w2 = rand_poly(rng, 4), rand_poly(rng, 4)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        combo = scale(w1, a) + scale(w2, b)
        r1 = griffiths_reduce(RationalDifferential(w1, 3))
        r2 = griffiths_reduce(RationalDifferential(w2, 3))
        rc = griffiths_reduce(RationalDifferential(combo, 3))
        assert rc == [a * x + b * y for x, y in zip(r1, r2)]


def test_reduce_idempotent_on_basis():
    basis = h3_basis()
    for j, diff in enumerate(basis.differentials()):
        coords = griffiths_reduce(diff)
        expected = [Fraction(int(i == j)) for i in range(10)]
        assert coords == expected


def test_pole_four_reduction_is_lift_independent():
    # degree-5 lift data: A = sum B_i dS_i with deg B_i = 5, pole order 4
    rng = random.Random(41)
    gens = jacobian_generators()
    for _ in range(3):
        B = [rand_poly(rng, 5, 0.25) for _ in range(5)]
        A = CycPoly.make({}, 7)
        for Bi, g in zip(B, gens):
            A = A + times(Bi, g)
        if A.is_zero():
            continue
        omega = RationalDifferential(A, 4)
        assert griffiths_reduce(omega) == reduce_via(B, 4)


def test_exact_forms_reduce_to_zero_shift():
    # a pure ideal numerator at pole 3 must land entirely in the pole-2 block
    rng = random.Random(7)
    gens = jacobian_generators()
    for _ in range(5):
        B = [rand_poly(rng, 2, 0.5) for _ in range(5)]
        A = CycPoly.make({}, 4)
        for Bi, g in zip(B, gens):
            A = A + times(Bi, g)
        coords = griffiths_reduce(RationalDifferential(A, 3))
        assert all(c == 0 for c in coords[5:])


def test_h3_basis_shape():
    basis = h3_basis()
    assert basis.dimension == 10
    assert len(basis.pole2_monomials) == 5
    assert len(basis.pole3_monomials) == 5
    assert all(sum(m) == 4 for m in basis.pole3_monomials)


def test_klein_form_invariant_under_rotation():
    S = klein_form()
    assert S.rotate_vars() == S


def test_alpha_pullback_structure():
    M = alpha_pullback()
    # Fil2 block is the 5-cycle permutation
    for i in range(5):
        for j in range(5):
            assert M[i][j] == Fraction(int(i == (j + 1) % 5))
    # pole-2 block never feeds the pole-3 block
    for i in range(5, 10):
        for j in range(5):
            assert M[i][j] == 0
    assert _dense_power(M, 5) == _dense_power(M, 0)


def test_eigenspace_split():
    M = alpha_pullback()
    split = eigenspace_split(M)
    assert split.dims == (2, 2, 2, 2, 2)
    assert split.fil2_dims == (1, 1, 1, 1, 1)


def test_basis_is_graded_by_the_order_11_symmetry():
    # x_i -> zeta_11^(e_i) x_i fixes S and Omega, so the class m Omega/S^k
    # has the weight e.m mod 11; the rotation multiplies weights by 9
    e = (1, 9, 4, 3, 5)

    def weight(m):
        return sum(a * b for a, b in zip(e, m)) % 11

    assert sum(e) % 11 == 0 and all(weight(t) == 0 for t, _ in klein_form().terms)
    assert all(e[(i + 1) % 5] == 9 * e[i] % 11 for i in range(5))
    basis = h3_basis()
    hodge = [weight(m) for m in basis.pole2_monomials]
    pole3 = [weight(m) for m in basis.pole3_monomials]
    residues = {x * x % 11 for x in range(1, 11)}
    assert hodge == [1, 9, 4, 3, 5] and set(hodge) == residues
    assert pole3 == [10, 6, 2, 8, 7] and set(pole3) == set(range(1, 11)) - residues
    w = hodge + pole3
    M = alpha_pullback()
    for i in range(10):
        for j in range(10):
            if M[i][j] != 0:
                assert w[i] == 9 * w[j] % 11
    # so M is monomial: two 5-cycles, one per block, each multiplying to 1
    col = [next(j for j, v in enumerate(row) if v) for row in M]
    for start in (0, 5):
        cycle = [start]
        while col[cycle[-1]] != start:
            cycle.append(col[cycle[-1]])
        assert sorted(cycle) == list(range(start, start + 5))
    entries = [M[i][col[i]] for i in range(10)]
    assert entries[:5] == [1] * 5
    assert entries[5:] == [-2, 1, Fraction(1, 4), 1, -2]
    assert math.prod(entries[5:]) == 1


def _split_by_two_ranks(M):
    """Reference: the kernel dimensions from two separate Gauss-Jordan ranks
    over Q(zeta_5), one of the shifted matrix and one of its first five
    columns."""
    dims, fil2 = [], []
    for j in range(5):
        z = 1 if j == 0 else CyclotomicNumber.zeta_pow(5, j)
        shifted = [[v - z if i == k else v for k, v in enumerate(row)] for i, row in enumerate(M)]
        dims.append(len(M) - gauss_jordan.rank(shifted))
        fil2.append(5 - gauss_jordan.rank([row[:5] for row in shifted]))
    return tuple(dims), tuple(fil2)


def _monomial_matrix(rng, products):
    """A seeded 10x10 monomial matrix, each cycle multiplying to an element
    of products; returns it with the cycle products."""
    perm = rng.sample(range(10), 10)  # column j holds its entry in row perm[j]
    M = [[Fraction(0)] * 10 for _ in range(10)]
    seen, chosen = set(), []
    for start in range(10):
        if start in seen:
            continue
        cycle = []
        j = start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = perm[j]
        chosen.append(rng.choice(products))
        entries = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for _ in cycle[1:]]
        entries.append(Fraction(chosen[-1]) / math.prod(entries))
        for j, v in zip(cycle, entries):
            M[perm[j]][j] = v
    return M, chosen


def test_eigenspace_split_matches_separate_ranks():
    # the cycle reading against a general elimination over Q(zeta_5), on the
    # rotation, on seeded permutation matrices (their cycles give roots of
    # unity of every order up to 10), on seeded monomial matrices with
    # cycle products 1, -1, 2 and 1/4, and on the identity
    rng = random.Random(31)
    mats = [alpha_pullback()]
    for _ in range(12):
        perm = rng.sample(range(10), 10)
        mats.append([[Fraction(int(perm[i] == k)) for k in range(10)] for i in range(10)])
    # identity plus sparse rational noise: not monomial, so no cycles to read
    noisy = [[[Fraction(int(i == k)) + (Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                        if rng.random() < 0.15 else 0)
               for k in range(10)] for i in range(10)] for _ in range(12)]
    products = [1, -1, 2, Fraction(1, 4)]
    products_seen = set()
    for _ in range(12):
        M, chosen = _monomial_matrix(rng, products)
        mats.append(M)
        products_seen.update(chosen)
    assert products_seen == set(products)
    mats.append([[Fraction(int(i == k)) for k in range(10)] for i in range(10)])
    fil2_seen = set()
    for M in mats:
        split = eigenspace_split(M)
        assert (split.dims, split.fil2_dims) == _split_by_two_ranks(M)
        fil2_seen.update(split.fil2_dims)
    assert len(fil2_seen) >= 3
    for M in noisy:
        with pytest.raises(ArithmeticError, match="not monomial"):
            eigenspace_split(M)


def test_fourier_vectors_are_eigenvectors():
    M = alpha_pullback()
    eigmap = fil2_eigenvector_map(M)
    # v_j carries eigenvalue zeta^(-j); the indexing is a bijection
    assert eigmap == {j: (-j) % 5 for j in range(5)}


def _fil2_map_reference(M):
    """fil2_eigenvector_map as it was computed with the reference Q(zeta_5)
    number type: M v_j entry by entry, divided by the entries of v_j."""
    zeta = [CyclotomicNumber.zeta_pow(5, k) for k in range(5)]
    out = {}
    for j in range(5):
        lam = None
        for i in range(len(M)):
            image = CyclotomicNumber.zero(5)
            for k in range(5):
                if M[i][k] != 0:
                    image = image + zeta[j * (k + 1) % 5] * M[i][k]
            if i >= 5:
                if not image.is_zero():
                    raise ArithmeticError("v_j is not an eigenvector")
                continue
            cand = image * zeta[-j * (i + 1) % 5]
            if lam is None:
                lam = cand
            elif lam != cand:
                raise ArithmeticError("v_j is not an eigenvector")
        power = next((k for k in range(5) if lam == zeta[k]), None)
        if power is None:
            raise ArithmeticError(f"eigenvalue {lam} of v_{j} is not a fifth root of unity")
        out[j] = power
    return out


def _outcome(fn, M):
    try:
        return fn(M)
    except ArithmeticError as exc:
        return repr(exc)


def _block_matrix(rng):
    """A seeded 10x10 matrix, diagonal past the Hodge block.  The block is c
    times a shift k -> k + s or a reflection k -> s - k of the first five
    coordinates, or a circulant sum_s a_s P^s (P the shift by 1), which has
    every v_j as an eigenvector, often with a_0 set so that v_0's is 1."""
    M = [[Fraction(0)] * 10 for _ in range(10)]
    kind, s, c = rng.randrange(3), rng.randrange(5), Fraction(rng.choice([1, 1, -1, 2]))
    if kind < 2:
        for k in range(5):
            M[(s - k if kind else k + s) % 5][k] = c
    else:
        a = [Fraction(rng.choice([0, 0, 1, -1, 2]), rng.randint(1, 2)) for _ in range(5)]
        if rng.random() < 0.7:
            a[0] += 1 - sum(a)
        for s, c in enumerate(a):
            for k in range(5):
                M[(k + s) % 5][k] += c
    for k in range(5, 10):
        M[k][k] = Fraction(rng.choice([1, -2, 3]), rng.randint(1, 3))
    return M


def test_fourier_vectors_match_the_cyclotomic_reference():
    # the lists of Z[z]/(z^5 - 1) over one denominator against Q(zeta_5)
    # arithmetic: same eigenvalue powers, same ArithmeticError and message
    rng = random.Random(35)
    M0 = alpha_pullback()
    mats = [M0]
    for _ in range(200):
        mats.append(_block_matrix(rng))
    for _ in range(100):
        mats.append(_monomial_matrix(rng, [1, -1, 2, Fraction(1, 4)])[0])
    for _ in range(100):
        M = [row[:] for row in M0]
        i, k = rng.randrange(10), rng.randrange(10)
        M[i][k] += Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 4))
        mats.append(M)
    outcomes = []
    for M in mats:
        got = _outcome(fil2_eigenvector_map, M)
        assert got == _outcome(_fil2_map_reference, M)
        outcomes.append(got if isinstance(got, str) else "map")
    # every branch is reached: a map, a vector that is not an eigenvector and
    # an eigenvalue that is not a fifth root of unity
    assert {"map", repr(ArithmeticError("v_j is not an eigenvector"))} <= set(outcomes)
    assert any("fifth root" in o and "v_0" not in o and "z5" in o for o in outcomes)


def test_gorenstein_pairing():
    mat = gorenstein_pairing_matrix()
    assert mat == [[Fraction(-1, 2), 0, 0, 0, 0], [0, 0, -2, 0, 0], [0, 0, 0, 0, 1],
                   [0, 0, 0, 1, 0], [0, 1, 0, 0, 0]]
    assert rank(mat) == 5
    assert gorenstein_pairing_nondegenerate()


def test_reduce_refuses_cyclotomic_coefficients_above_pole_order_two():
    # a numerator at pole order 3 goes through the rational echelon, which
    # takes ints and Fractions only; the reference Q(zeta_5) type is refused
    z = CyclotomicNumber.zeta_pow(5, 1)
    A = CycPoly.make({m: z for m in h3_basis().pole3_monomials}, 4)
    with pytest.raises(TypeError):
        griffiths_reduce(RationalDifferential(A, 3))


GOLDEN = Path(__file__).parent / "data" / "cohomology_golden.json"


def test_alpha_pullback_matches_golden():
    golden = json.loads(GOLDEN.read_text())["alpha_pullback"]
    assert [[str(c) for c in row] for row in alpha_pullback()] == golden


def _ideal_element(rng, d, density=0.4):
    """A random sum_i B_i dS/dx_i of degree d, with its B_i."""
    B = [rand_poly(rng, d - 2, density) for _ in range(5)]
    A = CycPoly.make({}, d)
    for Bi, g in zip(B, jacobian_generators()):
        A = A + times(Bi, g)
    return A, B


def _recompose(B, d):
    out = CycPoly.make({}, d)
    for Bi, g in zip(B, jacobian_generators()):
        out = out + times(Bi, g)
    return out


@pytest.mark.parametrize("d", range(2, 8))
def test_ideal_elements_lift_and_recompose(d):
    rng = random.Random(100 + d)
    for _ in range(4):
        A, _ = _ideal_element(rng, d)
        B = _lift(A)
        assert B is not None
        assert all(Bi.degree == d - 2 or Bi.is_zero() for Bi in B)
        assert _recompose(B, d) == A


@pytest.mark.parametrize("d", range(2, 6))
def test_elements_off_the_ideal_do_not_lift(d):
    rng = random.Random(200 + d)
    data = degree_data(d)
    for _ in range(4):
        A, _ = _ideal_element(rng, d)
        coords = [Fraction(rng.randint(1, 4)) if k == 0 else Fraction(rng.randint(-3, 3))
                  for k in range(data.quotient_dim)]
        rng.shuffle(coords)
        assert _lift(A + harmonic(data, coords)) is None


@pytest.mark.parametrize("d", range(2, 8))
def test_split_ignores_ideal_summands(d):
    rng = random.Random(300 + d)
    data = degree_data(d)
    for _ in range(4):
        A = rand_poly(rng, d)
        I, _ = _ideal_element(rng, d)
        coords, B, den = data.split(A)
        coords_shifted, B_shifted, den_shifted = data.split(A + I)
        assert ([Fraction(c, den_shifted) for c in coords_shifted]
                == [Fraction(c, den) for c in coords])
        # each split recomposes its input, times its integer scale
        assert _recompose(B, d) + harmonic(data, coords) == scale(A, den)
        assert (_recompose(B_shifted, d) + harmonic(data, coords_shifted)
                == scale(A + I, den_shifted))


def _dense_product(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def _dense_power(M, e):
    out = [[Fraction(int(i == j)) for j in range(len(M))] for i in range(len(M))]
    for _ in range(e):
        out = _dense_product(out, M)
    return out


def test_eigenspace_split_rejects_rotation_without_order_five():
    # the eigenspace dimensions sum below 10 exactly when M^5 != 1
    M = alpha_pullback()
    doubled = [[2 * c for c in row] for row in M]
    assert _dense_power(doubled, 5) != _dense_power(doubled, 0)
    assert sum(eigenspace_split(doubled).dims) < 10
    # a Jordan block for eigenvalue 1: order not dividing 5, and not
    # monomial, so there are no cycles to read
    jordan = [[Fraction(int(i == j or j == i + 1)) for j in range(10)] for i in range(10)]
    assert _dense_power(jordan, 5) != _dense_power(jordan, 0)
    with pytest.raises(ArithmeticError, match="not monomial"):
        eigenspace_split(jordan)
