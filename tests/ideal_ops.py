"""CycPoly arithmetic the tests use to build members of the Jacobian ideal
and to reduce through a lift of their own choosing.  The package reduces
without products of forms: `gdcohom.DegreeData.split` reads a lift off its
echelon, and `gdcohom.griffiths_reduce` only differentiates and adds."""

from fractions import Fraction

from kleinzeta.gdcohom import NVARS, CycPoly, RationalDifferential, griffiths_reduce


def scale(a: CycPoly, f) -> CycPoly:
    if not f:
        return CycPoly.make({}, a.degree)
    return CycPoly(a.degree, tuple((e, c * f) for e, c in a.terms))


def times(a: CycPoly, b: CycPoly) -> CycPoly:
    out = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return CycPoly.make(out, a.degree + b.degree)


def harmonic(data, coords) -> CycPoly:
    """The polynomial with the given coordinates over data's complement."""
    return CycPoly.make(dict(zip(data.complement, coords)), data.degree)


def reduce_via(B, m: int) -> list:
    """The coordinates of (sum_i B_i dS/dx_i) Omega / S^m, reduced through the
    given lift B: one pole-order step to (1/(m-1)) (sum_i dB_i/dx_i) Omega /
    S^(m-1), then griffiths_reduce.  The numerator must lie in the ideal,
    as it always does above pole order 3, so no harmonic part is dropped."""
    A = CycPoly.make({}, 3 * m - 8)
    for i in range(NVARS):
        A = A + B[i].diff(i)
    return griffiths_reduce(RationalDifferential(scale(A, Fraction(1, m - 1)), m - 1))
