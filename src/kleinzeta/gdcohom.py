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
products m * dS/dx_i, each tagged with a column of its own, so one
reduction of A yields both the harmonic part of A (coordinates over the
monomial complement) and a lift B_i of the rest; a reduction step costs one
pass over that echelon.  The Gorenstein pairing needs no lift, so its
degree-5 echelon carries no tags.  The eigenvector check skips zero
entries, and the eigenspace ranks keep the rational entries of the rotation
as Fractions; only the shifted diagonal lies in Q(zeta_5), whose elements
are integer numerators over one denominator (`cyclo`), and a rational
scalar times one of them costs no Fraction.  The rank sum of
the eigenspaces is the order check: it reaches 10 exactly when the
rotation matrix M has M^5 = 1, so M^5 is never formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclo import CyclotomicNumber
from .linalg import Echelon, _is_zero, rank

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
    """Homogeneous polynomial in x_0..x_4, coefficients in Q or Q(zeta_5)."""
    degree: int
    terms: tuple  # sorted ((exps, coeff), ...) with no zero coefficients

    @staticmethod
    def make(terms: dict, degree: int | None = None) -> "CycPoly":
        clean = {e: c for e, c in terms.items() if not _is_zero(c)}
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

    def __neg__(self) -> "CycPoly":
        return CycPoly(self.degree, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "CycPoly") -> "CycPoly":
        return self + (-other)

    def scale(self, f) -> "CycPoly":
        if _is_zero(f):
            return CycPoly.make({}, self.degree)
        return CycPoly(self.degree, tuple((e, c * f) for e, c in self.terms))

    def __mul__(self, other: "CycPoly") -> "CycPoly":
        out = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return CycPoly.make(out, self.degree + other.degree)

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
        out = {}
        for e, c in self.terms:
            ne = tuple(e[(j - 1) % NVARS] for j in range(NVARS))
            out[ne] = out.get(ne, 0) + c
        return CycPoly.make(out, self.degree)


def monomial(exps, coeff=Fraction(1)) -> CycPoly:
    return CycPoly.make({tuple(exps): coeff})


def klein_form() -> CycPoly:
    terms = {}
    for i in range(NVARS):
        e = [0] * NVARS
        e[i] = 2
        e[(i + 1) % NVARS] = 1
        terms[tuple(e)] = Fraction(1)
    return CycPoly.make(terms)


def jacobian_generators() -> list:
    """dS/dx_i = 2 x_i x_(i+1) + x_(i-1)^2, degree 2, cyclic shifts."""
    S = klein_form()
    return [S.diff(i) for i in range(NVARS)]


# ---------------------------------------------------------------------------
# graded structure of the Jacobian ring


def _ideal_rows(d: int, index: dict):
    """The products m * dS/dx_i spanning the degree-d part of the Jacobian
    ideal, i outer and m inner, as rows over the monomial columns index."""
    gens = jacobian_generators()
    for i in range(NVARS):
        for m in monomials_of_degree(d - 2):
            yield {index[e]: c for e, c in (monomial(m) * gens[i]).terms}


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
        self.generators = [(i, m) for i in range(NVARS) for m in monomials_of_degree(d - 2)]
        ech = Echelon()
        tag0 = len(self.monomials)
        for t, row in enumerate(_ideal_rows(d, self.index)):
            row[tag0 + t] = Fraction(1)
            red = ech.reduce(row)
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
        """poly = harmonic + sum_i B_i dS/dx_i: the harmonic part's coordinates
        over the complement, and the five B_i."""
        d = self.degree
        coords = [Fraction(0)] * self.quotient_dim
        parts = [dict() for _ in range(NVARS)]
        if not poly.is_zero():
            red = self.echelon.reduce({self.index[e]: c for e, c in poly.terms})
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
        return coords, [CycPoly.make(t, max(d - 2, 0)) for t in parts]

    def harmonic(self, coords) -> CycPoly:
        """The polynomial with the given coordinates over the complement."""
        return CycPoly.make(dict(zip(self.complement, coords)), self.degree)


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


def griffiths_reduce(omega: RationalDifferential, first_lift=None) -> list:
    """Coordinates of the class of omega in the basis of h3_basis().

    Each step splits the numerator A at pole order m into its harmonic part
    and sum_i B_i dS/dx_i, and goes on with (1/(m-1)) sum_i dB_i/dx_i at
    pole order m - 1, until A is zero or at pole order 2.  The harmonic part
    at pole order 3 gives the coordinates over the degree-4 complement; the
    numerator left at pole order 2 gives those over the x_i (J_1 = 0).

    first_lift, when given, must be an exact lift of the numerator's ideal
    part (five polynomials with sum_i B_i dS/dx_i = A - harmonic part, which
    is A itself above pole order 3); it is applied at the
    first reduction step in place of the one from DegreeData.split, which
    lets callers check that the reduction does not depend on the lift.
    """
    A, m = omega.form, omega.pole_order
    pole3 = [Fraction(0)] * degree_data(4).quotient_dim
    while m > 2 and not A.is_zero():
        data = degree_data(A.degree)
        coords, B = data.split(A)
        if m == 3:
            pole3 = coords
        elif any(not _is_zero(c) for c in coords):
            # (R/J)_d vanishes for d = 3m-5 > 5, so A is entirely ideal
            raise ArithmeticError("nonzero harmonic part above the socle degree")
        if first_lift is not None:
            recomposed = CycPoly.make({}, A.degree)
            for Bi, g in zip(first_lift, jacobian_generators()):
                recomposed = recomposed + Bi * g
            if not (recomposed + data.harmonic(coords) - A).is_zero():
                raise ValueError("provided lift does not recompose the numerator")
            B, first_lift = first_lift, None
        m -= 1
        A = CycPoly.make({}, 3 * m - 5)
        for i in range(NVARS):
            A = A + B[i].diff(i)
        A = A.scale(Fraction(1, m))
    pole2 = A.dict()  # empty unless A reached pole order 2
    return [pole2.get(x, Fraction(0)) for x in degree_data(1).complement] + pole3


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
    """Kernel dimensions of (M - zeta_5^j) over Q(zeta_5), with the
    intersection against the pole-order-2 block (first five coordinates).

    The dimensions sum to n exactly when M is diagonalizable over Q(zeta_5)
    with fifth roots of unity as eigenvalues, that is when M^5 = 1 (x^5 - 1
    is separable), so callers read their sum as the order check.
    Rational entries stay Fractions; only the shifted diagonal is cyclotomic.

    One elimination serves both ranks.  Each echelon row pivots at its first
    nonzero column and no two rows share a pivot, so the vectors of the row
    space that vanish on the first five columns are spanned by the rows that
    pivot past them: the rank of the first five columns is the number of
    pivots among them.
    """
    n = len(M)
    dims = []
    fil2 = []
    for j in range(5):
        z = 1 if j == 0 else CyclotomicNumber.zeta_pow(5, j)
        ech = Echelon()
        for i, row in enumerate(M):
            shifted = dict(enumerate(row))
            shifted[i] = row[i] - z
            ech.append(ech.reduce(shifted))
        dims.append(n - ech.rank)
        fil2.append(5 - sum(pc < 5 for pc in ech.pivot_cols))
    return EigenSplit(tuple(dims), tuple(fil2))


def fil2_eigenvector_map(M) -> dict:
    """For each j, check v_j = (zeta^(j(i+1)))_i in the Hodge block is an
    eigenvector of M; returns {j: eigenvalue power}."""
    n = len(M)
    zeta = [CyclotomicNumber.zeta_pow(5, k) for k in range(5)]
    out = {}
    for j in range(5):
        # v_j has support in the first five coordinates; dividing by its
        # entry zeta^(j(i+1)) is multiplying by zeta^(-j(i+1))
        lam = None
        for i in range(n):
            image = CyclotomicNumber.zero(5)
            for k in range(5):
                if not _is_zero(M[i][k]):
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


def gorenstein_pairing_matrix():
    """Multiplication (R/J)_1 x (R/J)_4 -> (R/J)_5 in the socle coordinate.

    Only that one coordinate is read and no lift is needed, so the degree-5
    part of the ideal is echelonized without DegreeData's tag columns.
    """
    index = {m: i for i, m in enumerate(monomials_of_degree(5))}
    ech = Echelon()
    for row in _ideal_rows(5, index):
        ech.append(ech.reduce(row))
    socle = sorted(set(index.values()) - set(ech.pivot_cols))
    if len(socle) != 1:
        raise ArithmeticError("socle is not 1-dimensional")
    return [[ech.reduce({index[e]: c for e, c in (monomial(m1) * monomial(m4)).terms})
             .get(socle[0], Fraction(0))
             for m4 in degree_data(4).complement]
            for m1 in degree_data(1).complement]


def gorenstein_pairing_nondegenerate() -> bool:
    return rank(gorenstein_pairing_matrix()) == 5
