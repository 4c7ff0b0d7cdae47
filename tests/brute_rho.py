"""The brute-force rho route for the tests: the exact coset pair (h1, h2)
of a parameter tuple, as a product of `thetasupp.PadicMat2` factors.  The
tests apply `thetasupp.rho_act` to it and hold the scanner's closed-form
kernels and its entry rules to the result."""

from fractions import Fraction

from kleinzeta.thetasupp import CosetParams, _h1_core, _h2, _upper


def _fractional_shift_ok(p: int, s: Fraction) -> bool:
    return 0 <= s < 1 and (s == 0 or s.denominator == p)


def coset_rep(p: int, params: CosetParams):
    """The exact pair (h1, h2) for the given coset parameters."""
    if not _fractional_shift_ok(p, params.s) or not _fractional_shift_ok(p, params.t):
        raise ValueError("s and t must lie in {0, 1/p, ..., (p-1)/p}")
    ty = params.type
    h1 = _upper(params.x) * _h1_core(p, ty, params.m, params.s)
    return h1.scale(Fraction(p) ** params.r), _h2(p, ty, params.n, params.t)
