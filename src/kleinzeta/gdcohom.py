"""Middle de Rham cohomology of the Klein cubic by pole-order reduction.

Classes on the complement are written A*Omega/S^m with A homogeneous of
degree 3m - 5 and Omega the Euler 4-form sum_i x_i dx_0 ^ ... ^ dx_i-hat
^ ... ^ dx_4.  A class whose numerator lies in the Jacobian ideal
A = sum_i B_i dS/dx_i drops pole order through

    A Omega / S^m  ==  (1/(m-1)) (sum_i dB_i/dx_i) Omega / S^(m-1)

modulo exact forms.  The Jacobian ring here is Artinian Gorenstein with
Hilbert function 1, 5, 10, 10, 5, 1, so reduced classes live at pole
order 2 (degree 1, five classes, the Hodge-filtration block) and pole
order 3 (degree 4, five classes over the monomial complement of the
ideal).  The cyclic coordinate rotation acts on this 10-dimensional space
with five 2-dimensional eigenspaces over Q(zeta_5).

Each degree d is echelonized once (`degree_data`).  Its rows are the
products m * dS/dx_i, formed by adding exponent tuples, with integer
coefficients and each tagged with a column of its own, so one reduction of
A yields both the harmonic part of A (coordinates over the monomial
complement) and a lift B_i of the rest.  The echelon is fraction-free
(`linalg`): a reduction visits only the rows whose pivot columns it meets
and returns an integer multiple of the remainder, and `DegreeData.split`
divides once per coordinate it reads.  The Gorenstein pairing needs no
lift, so its degree-5 echelon carries no tags, each product m1 * m4 is one
exponent sum, and only the socle coordinate is divided.  The eigenvector
check skips zero entries.

The eigenspaces need no elimination.  The order-11 diagonal symmetry
x_i -> zeta_11^(e_i) x_i, e = (1, 9, 4, 3, 5), fixes S and Omega, so it
grades every basis class m Omega/S^k by the weight e.m mod 11, and the ten
weights are distinct.  The rotation multiplies weights by 9 (e_(i+1) = 9 e_i
mod 11; it conjugates the symmetry to its 9th power), so the rotation matrix
M sends the class of weight w to a multiple of the one class of weight 9w:
M is monomial.  Its eigenspaces are then read off its cycles
(`eigenspace_split`), with integer products and no Fraction.  Their
dimensions sum to 10 exactly when M^5 = 1, so that sum is the order check
and M^5 is never formed.  The Fourier eigenvectors of the Hodge block are
checked in Z[z]/(z^5 - 1) over one integer denominator (`poly.at_zeta`).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import Echelon, common_denominator, exact_quotient, rank
from .poly import at_zeta

NVARS = 5


def monomials_of_degree(d: int) -> list:
    """Exponent tuples of total degree d, graded-reverse-lex descending."""
    if d < 0:
        return []
    mons = []
    for bars in itertools.combinations(range(d + NVARS - 1), NVARS - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + NVARS - 2 - prev)
        mons.append(tuple(exps))
    # grevlex descending == ascending lexicographic order of reversed tuples
    mons.sort(key=lambda e: e[::-1])
    return mons


@dataclass(frozen=True)
class CycPoly:
    """Homogeneous polynomial in x_0..x_4 with rational coefficients."""
    degree: int
    terms: tuple  # sorted ((exps, coeff), ...) with no zero coefficients

    @staticmethod
    def make(terms: dict, degree: int | None = None) -> "CycPoly":
        clean = {e: c for e, c in terms.items() if c}
        if clean:
            degrees = {sum(e) for e in clean}
            if len(degrees) != 1:
                raise ValueError("polynomial is not homogeneous")
            (d,) = degrees
            if degree is not None and degree != d:
                raise ValueError("declared degree does not match terms")
            degree = d
        elif degree is None:
            degree = 0
        return CycPoly(degree, tuple(sorted(clean.items())))

    def dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CycPoly") -> "CycPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = self.dict()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return CycPoly.make(out, self.degree)

    def diff(self, var: int) -> "CycPoly":
        out = {}
        for e, c in self.terms:
            if e[var]:
                ne = list(e)
                ne[var] -= 1
                out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[var]
        return CycPoly.make(out, max(self.degree - 1, 0))

    def rotate_vars(self) -> "CycPoly":
        """Substitution x_i -> x_(i+1) (indices mod 5)."""
        # a permutation of the variables maps distinct monomials to distinct ones
        return CycPoly.make({tuple(e[(j - 1) % NVARS] for j in range(NVARS)): c
                             for e, c in self.terms}, self.degree)


def monomial(exps) -> CycPoly:
    return CycPoly.make({tuple(exps): 1})


def klein_form() -> CycPoly:
    terms = {}
    for i in range(NVARS):
        e = [0] * NVARS
        e[i] = 2
        e[(i + 1) % NVARS] = 1
        terms[tuple(e)] = 1
    return CycPoly.make(terms)


def jacobian_generators() -> list:
    """dS/dx_i = 2 x_i x_(i+1) + x_(i-1)^2, degree 2, cyclic shifts."""
    S = klein_form()
    return [S.diff(i) for i in range(NVARS)]


# ---------------------------------------------------------------------------
# graded structure of the Jacobian ring


def _times_monomial(m, e):
    """The exponent tuple of the monomial product x^m x^e."""
    return tuple(map(operator.add, m, e))


def _ideal_rows(mons: list, index: dict):
    """The products m * dS/dx_i spanning the degree-d part of the Jacobian
    ideal, i outer and m inner over mons, the monomials of degree d - 2, as
    integer rows over the monomial columns index; a monomial times a term
    only adds exponent tuples."""
    for g in jacobian_generators():
        for m in mons:
            yield {index[_times_monomial(m, e)]: c for e, c in g.terms}


class DegreeData:
    """Echelonized image of (R_(d-2))^5 -> R_d, (B_i) -> sum B_i dS/dx_i.

    The row of each generator product m * dS/dx_i carries, past the monomial
    columns, a tag column for (i, m) with coefficient 1.  Reducing A against
    the echelon then leaves the harmonic part of A on the complement columns
    and minus the lift coefficients on the tag columns, so one reduction
    both splits A and lifts its ideal part.
    """

    def __init__(self, d: int):
        self.degree = d
        self.monomials = monomials_of_degree(d)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        # tag column len(monomials) + t belongs to generator product t
        lower = monomials_of_degree(d - 2)
        self.generators = [(i, m) for i in range(NVARS) for m in lower]
        ech = Echelon()
        tag0 = len(self.monomials)
        for t, row in enumerate(_ideal_rows(lower, self.index)):
            row[tag0 + t] = 1
            red, _ = ech.reduce(row)
            if min(red) < tag0:  # a row left with tags only is a syzygy: lifts need none
                ech.append(red)
        self.echelon = ech
        pivots = set(ech.pivot_cols)
        self.complement = [m for i, m in enumerate(self.monomials) if i not in pivots]
        self._comp_index = {self.index[m]: j for j, m in enumerate(self.complement)}

    @property
    def quotient_dim(self) -> int:
        return len(self.complement)

    def split(self, poly: CycPoly):
        """(coords, B, scale) with scale * poly = harmonic + sum_i B_i dS/dx_i:
        the harmonic part's integer coordinates over the complement, the five
        B_i with integer coefficients, and the positive integer scale."""
        d = self.degree
        coords = [0] * self.quotient_dim
        parts = [dict() for _ in range(NVARS)]
        red, scale = self.echelon.reduce({self.index[e]: c for e, c in poly.terms})
        tag0 = len(self.monomials)
        for col, v in red.items():
            if col >= tag0:
                i, m = self.generators[col - tag0]
                parts[i][m] = -v
                continue
            j = self._comp_index.get(col)
            if j is None:
                raise ArithmeticError("normal form escaped the complement")
            coords[j] = v
        return coords, [CycPoly.make(t, max(d - 2, 0)) for t in parts], scale


@lru_cache(maxsize=32)
def degree_data(d: int) -> DegreeData:
    return DegreeData(d)


# ---------------------------------------------------------------------------
# rational differentials and reduction


@dataclass(frozen=True)
class RationalDifferential:
    """A * Omega / S^m on the hypersurface complement."""
    form: CycPoly
    pole_order: int

    def __post_init__(self):
        if self.pole_order < 2:
            raise ValueError("pole order must be >= 2")
        if not self.form.is_zero() and self.form.degree != 3 * self.pole_order - 5:
            raise ValueError(
                f"degree balance broken: deg A = {self.form.degree}, "
                f"pole order {self.pole_order} needs {3 * self.pole_order - 5}")


@dataclass(frozen=True)
class CohomologyBasis:
    pole2_monomials: tuple  # the five x_i
    pole3_monomials: tuple  # degree-4 complement of the Jacobian ideal

    @property
    def dimension(self) -> int:
        return len(self.pole2_monomials) + len(self.pole3_monomials)

    def differentials(self) -> list:
        out = [RationalDifferential(monomial(m), 2) for m in self.pole2_monomials]
        out += [RationalDifferential(monomial(m), 3) for m in self.pole3_monomials]
        return out


def h3_basis() -> CohomologyBasis:
    """Five classes x_i Omega/S^2 (the Hodge block) plus five A Omega/S^3."""
    mons1, mons4 = degree_data(1).complement, degree_data(4).complement
    if len(mons1) != 5 or len(mons4) != 5:
        raise ArithmeticError(f"unexpected graded dimensions ({len(mons1)}, {len(mons4)})")
    return CohomologyBasis(tuple(mons1), tuple(mons4))


def griffiths_reduce(omega: RationalDifferential) -> list:
    """Coordinates of the class of omega in the basis of h3_basis().

    Each step splits the numerator A at pole order m into its harmonic part
    and sum_i B_i dS/dx_i, and goes on with (1/(m-1)) sum_i dB_i/dx_i at
    pole order m - 1, until A is zero or at pole order 2.  The harmonic part
    at pole order 3 gives the coordinates over the degree-4 complement; the
    numerator left at pole order 2 gives those over the x_i (J_1 = 0).
    The numerator is carried as a form over one positive integer
    denominator, the product of the splits' scales and the factors m - 1,
    so a Fraction is built only for a coordinate read at pole order 3 or 2
    that the denominator does not divide.
    """
    A, m, den = omega.form, omega.pole_order, 1     # the numerator is A / den
    pole3 = [0] * degree_data(4).quotient_dim
    while m > 2 and not A.is_zero():
        coords, B, scale = degree_data(A.degree).split(A)
        if m == 3:
            pole3 = [exact_quotient(c, den * scale) for c in coords]
        elif any(coords):
            # (R/J)_d vanishes for d = 3m-5 > 5, so A is entirely ideal
            raise ArithmeticError("nonzero harmonic part above the socle degree")
        m -= 1
        den *= scale * m
        A = CycPoly.make({}, 3 * m - 5)
        for i in range(NVARS):
            A = A + B[i].diff(i)
    terms = A.dict()  # empty unless A reached pole order 2
    pole2 = [terms.get(x, 0) for x in degree_data(1).complement]
    if den > 1:     # a numerator given at pole order 2 is read as it is
        pole2 = [exact_quotient(c, den) for c in pole2]
    return pole2 + pole3


# ---------------------------------------------------------------------------
# cyclic rotation action and its eigenspaces


def alpha_pullback():
    """10x10 matrix of the coordinate-rotation pullback on h3_basis().

    Entries are rational (a submatrix of the action over Q(zeta_5));
    column j holds the reduced coordinates of the image of basis class j.
    """
    cols = [griffiths_reduce(RationalDifferential(diff.form.rotate_vars(), diff.pole_order))
            for diff in h3_basis().differentials()]
    return [list(row) for row in zip(*cols)]


@dataclass(frozen=True)
class EigenSplit:
    # per power j of zeta_5: (dimension, dimension of the Hodge-block slice)
    dims: tuple
    fil2_dims: tuple


def eigenspace_split(M) -> EigenSplit:
    """Kernel dimensions of (M - zeta_5^j) over Q(zeta_5) for a rational
    monomial M, with the intersection against the pole-order-2 block (first
    five coordinates).  A matrix that is not monomial raises ArithmeticError.

    alpha_pullback() is monomial because the rotation permutes the weight
    lines of the order-11 diagonal symmetry (module docstring).  A
    cycle of M of length L whose entries multiply to c acts as M^L = c on
    the span of its L coordinates, so its eigenvalues are the L roots of
    x^L - c, each simple, with eigenvectors nonzero on the whole cycle.
    A fifth root of unity zeta_5^j is among them, once, exactly when
    zeta_5^(jL) = c, that is when c = 1 and 5 divides jL.  The eigenspace of
    zeta_5^j is the sum of those lines, and it meets the first five
    coordinates in the lines of the cycles that lie in them.

    The dimensions sum to n exactly when every cycle has c = 1 and length
    1 or 5, that is when M^5 = 1, so callers read their sum as the order
    check.  c is kept as an integer numerator over a positive integer
    denominator, so no Fraction is built.
    """
    n = len(M)
    # column j -> row i of its one nonzero entry, M e_j = M_ij e_i; n rows
    # with one nonzero entry each, in distinct columns, fill every column once
    image = {}
    for i, row in enumerate(M):
        nonzero = [j for j, v in enumerate(row) if v]
        if len(nonzero) != 1 or nonzero[0] in image:
            raise ArithmeticError("rotation matrix is not monomial")
        image[nonzero[0]] = i
    dims, fil2 = [0] * 5, [0] * 5
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        length, num, den, in_block = 0, 1, 1, True
        j = start
        while j not in seen:
            seen.add(j)
            i = image[j]
            num *= M[i][j].numerator
            den *= M[i][j].denominator
            in_block = in_block and j < 5
            length += 1
            j = i
        if num == den:
            for k in range(5):
                if k * length % 5 == 0:
                    dims[k] += 1
                    fil2[k] += in_block
    return EigenSplit(tuple(dims), tuple(fil2))


def fil2_eigenvector_map(M) -> dict:
    """For each j, check v_j = (zeta^(j(i+1)))_i in the Hodge block is an
    eigenvector of M; returns {j: eigenvalue power}.

    The first five columns of M go over their integer common denominator
    den, so den (M v_j)_i is a list of Z[z]/(z^5 - 1) and no Fraction is
    built; two such lists are compared at zeta_5 by their at_zeta
    coordinates.
    """
    nums, den = common_denominator([c for row in M for c in row[:5]])
    rows = [nums[5 * i:5 * i + 5] for i in range(len(M))]
    roots = [at_zeta([den * (m == k) for m in range(5)]) for k in range(5)]  # den zeta^k
    out = {}
    for j in range(5):
        lam = None
        for i, row in enumerate(rows):
            image = [0] * 5
            for k, c in enumerate(row):
                image[j * (k + 1) % 5] += c
            if i >= 5:
                if any(at_zeta(image)):
                    raise ArithmeticError("v_j is not an eigenvector")
                continue
            # dividing by the entry zeta^(j(i+1)) of v_j rotates the list back by s
            s = j * (i + 1) % 5
            cand = at_zeta(image[s:] + image[:s])
            if lam is None:
                lam = cand
            elif lam != cand:
                raise ArithmeticError("v_j is not an eigenvector")
        if lam not in roots:
            terms = [f"{Fraction(c, den)}" + ("*z5" if e == 1 else f"*z5^{e}" if e else "")
                     for e, c in enumerate(lam) if c]
            raise ArithmeticError(f"eigenvalue {' + '.join(terms) or 0} of v_{j} is not a "
                                  "fifth root of unity")
        out[j] = roots.index(lam)
    return out


def gorenstein_pairing_matrix():
    """Multiplication (R/J)_1 x (R/J)_4 -> (R/J)_5 in the socle coordinate.

    Only that one coordinate is read and no lift is needed, so the degree-5
    part of the ideal is echelonized without DegreeData's tag columns, and
    each product m1 * m4 is one monomial, found by adding exponent tuples.
    """
    index = {m: i for i, m in enumerate(monomials_of_degree(5))}
    ech = Echelon()
    for row in _ideal_rows(monomials_of_degree(3), index):
        ech.append(ech.reduce(row)[0])
    socle = sorted(set(index.values()) - set(ech.pivot_cols))
    if len(socle) != 1:
        raise ArithmeticError("socle is not 1-dimensional")
    out = []
    for m1 in degree_data(1).complement:
        out.append([])
        for m4 in degree_data(4).complement:
            red, scale = ech.reduce({index[_times_monomial(m1, m4)]: 1})
            out[-1].append(exact_quotient(red.get(socle[0], 0), scale))
    return out


def gorenstein_pairing_nondegenerate() -> bool:
    return rank(gorenstein_pairing_matrix()) == 5
