import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kleinzeta.cyclo import CyclotomicNumber
from kleinzeta.gdcohom import (CycPoly, RationalDifferential, alpha_pullback, degree_data,
                               eigenspace_split, fil2_eigenvector_map, gorenstein_pairing_matrix,
                               gorenstein_pairing_nondegenerate, griffiths_reduce, h3_basis,
                               jacobian_generators, klein_form, monomial, monomials_of_degree)
from kleinzeta.linalg import rank


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
    coords, lift = degree_data(A.degree).split(A)
    if any(c != 0 for c in coords):
        return None
    return lift


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


def test_lift_examples():
    gens = jacobian_generators()
    A = monomial((2, 0, 0, 0, 0)) * gens[0]
    B = _lift(A)
    assert B is not None
    recomposed = CycPoly.make({}, 4)
    for Bi, g in zip(B, gens):
        recomposed = recomposed + Bi * g
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
    prod = gens[0] * gens[1]
    via0 = griffiths_reduce(RationalDifferential(prod, 3),
                            first_lift=[gens[1]] + [CycPoly.make({}, 2)] * 4)
    via1 = griffiths_reduce(RationalDifferential(prod, 3),
                            first_lift=[CycPoly.make({}, 2), gens[0]]
                            + [CycPoly.make({}, 2)] * 3)
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
        combo = w1.scale(a) + w2.scale(b)
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
            A = A + Bi * g
        if A.is_zero():
            continue
        omega = RationalDifferential(A, 4)
        assert griffiths_reduce(omega) == griffiths_reduce(omega, first_lift=B)


def test_exact_forms_reduce_to_zero_shift():
    # a pure ideal numerator at pole 3 must land entirely in the pole-2 block
    rng = random.Random(7)
    gens = jacobian_generators()
    for _ in range(5):
        B = [rand_poly(rng, 2, 0.5) for _ in range(5)]
        A = CycPoly.make({}, 4)
        for Bi, g in zip(B, gens):
            A = A + Bi * g
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


def _split_by_two_ranks(M):
    """Reference: the kernel dimensions from two separate rank computations,
    one of the shifted matrix and one of its first five columns."""
    dims, fil2 = [], []
    for j in range(5):
        z = 1 if j == 0 else CyclotomicNumber.zeta_pow(5, j)
        shifted = [[v - z if i == k else v for k, v in enumerate(row)] for i, row in enumerate(M)]
        dims.append(len(M) - rank(shifted))
        fil2.append(5 - rank([row[:5] for row in shifted]))
    return tuple(dims), tuple(fil2)


def test_eigenspace_split_matches_separate_ranks():
    # one elimination gives both ranks; checked on the rotation, on seeded
    # permutation matrices (their cycles give roots of unity of every order
    # up to 10) and on sparse rational matrices plus the identity
    rng = random.Random(31)
    mats = [alpha_pullback()]
    for _ in range(12):
        perm = rng.sample(range(10), 10)
        mats.append([[Fraction(int(perm[i] == k)) for k in range(10)] for i in range(10)])
    for _ in range(12):
        mats.append([[Fraction(int(i == k)) + (Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                             if rng.random() < 0.15 else 0)
                      for k in range(10)] for i in range(10)])
    fil2_seen = set()
    for M in mats:
        split = eigenspace_split(M)
        assert (split.dims, split.fil2_dims) == _split_by_two_ranks(M)
        fil2_seen.update(split.fil2_dims)
    assert len(fil2_seen) >= 3


def test_fourier_vectors_are_eigenvectors():
    M = alpha_pullback()
    eigmap = fil2_eigenvector_map(M)
    # v_j carries eigenvalue zeta^(-j); the indexing is a bijection
    assert eigmap == {j: (-j) % 5 for j in range(5)}


def test_gorenstein_pairing():
    mat = gorenstein_pairing_matrix()
    assert len(mat) == 5 and len(mat[0]) == 5
    assert rank(mat) == 5
    assert gorenstein_pairing_nondegenerate()


def test_reduce_handles_cyclotomic_coefficients():
    # the Fourier combination of the Hodge-block classes, with zeta coefficients
    basis = h3_basis()
    z = CyclotomicNumber.zeta_pow
    terms = {m: z(5, (i + 1)) for i, m in enumerate(basis.pole2_monomials)}
    vj = CycPoly.make(terms, 1)
    coords = griffiths_reduce(RationalDifferential(vj, 2))
    assert coords[:5] == [z(5, (i + 1)) for i in range(5)]
    image = vj.rotate_vars()
    icoords = griffiths_reduce(RationalDifferential(image, 2))
    lam = z(5, -1)
    assert icoords[:5] == [lam * c for c in coords[:5]]


GOLDEN = Path(__file__).parent / "data" / "cohomology_golden.json"


def test_alpha_pullback_matches_golden():
    golden = json.loads(GOLDEN.read_text())["alpha_pullback"]
    assert [[str(c) for c in row] for row in alpha_pullback()] == golden


def _ideal_element(rng, d, density=0.4):
    """A random sum_i B_i dS/dx_i of degree d, with its B_i."""
    B = [rand_poly(rng, d - 2, density) for _ in range(5)]
    A = CycPoly.make({}, d)
    for Bi, g in zip(B, jacobian_generators()):
        A = A + Bi * g
    return A, B


def _recompose(B, d):
    out = CycPoly.make({}, d)
    for Bi, g in zip(B, jacobian_generators()):
        out = out + Bi * g
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
        assert _lift(A + data.harmonic(coords)) is None


@pytest.mark.parametrize("d", range(2, 8))
def test_split_ignores_ideal_summands(d):
    rng = random.Random(300 + d)
    data = degree_data(d)
    for _ in range(4):
        A = rand_poly(rng, d)
        I, _ = _ideal_element(rng, d)
        coords, B = data.split(A)
        coords_shifted, B_shifted = data.split(A + I)
        assert coords_shifted == coords
        # each split recomposes its input
        assert _recompose(B, d) + data.harmonic(coords) == A
        assert _recompose(B_shifted, d) + data.harmonic(coords) == A + I


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
    # a Jordan block for eigenvalue 1: order not dividing 5, no eigenvalue off 1
    jordan = [[Fraction(int(i == j or j == i + 1)) for j in range(10)] for i in range(10)]
    assert _dense_power(jordan, 5) != _dense_power(jordan, 0)
    assert sum(eigenspace_split(jordan).dims) < 10
