"""The brute-force rho route for the tests: a parameter tuple of a coset
type (CosetParams), and its exact coset pair (h1, h2) as a product of
`thetasupp.PadicMat2` factors.  The tests apply `thetasupp.rho_act` to it
and hold the scanner's closed-form kernels and its entry rules to the
result."""

from dataclasses import dataclass
from fractions import Fraction

from kleinzeta.thetasupp import _N_SHIFT, _WEYL, COSET_TYPES, _coset_core, _upper


@dataclass(frozen=True)
class CosetParams:
    type: str
    m: int
    n: int
    r: int
    s: Fraction = Fraction(0)
    t: Fraction = Fraction(0)
    x: Fraction = Fraction(0)

    def __post_init__(self):
        if self.type not in COSET_TYPES:
            raise ValueError(f"unknown coset type {self.type!r}")
        m, n, r = self.m, self.n, self.r
        if n != m + 2 * r + _N_SHIFT[self.type]:
            raise ValueError(f"type {self.type} constraint broken for (m,n,r)=({m},{n},{r})")


def _fractional_shift_ok(p: int, s: Fraction) -> bool:
    return 0 <= s < 1 and (s == 0 or s.denominator == p)


def coset_rep(p: int, params: CosetParams):
    """The exact pair (h1, h2) for the given coset parameters: h1 =
    p^r U(x) diag(p^m, 1) w U(s) and h2 = diag(p^n, 1) w U(t), where a
    component without the Weyl factor w drops both w and its shift."""
    if not _fractional_shift_ok(p, params.s) or not _fractional_shift_ok(p, params.t):
        raise ValueError("s and t must lie in {0, 1/p, ..., (p-1)/p}")
    weyl1, weyl2 = _WEYL[params.type]
    h1 = _upper(params.x) * _coset_core(p, weyl1, params.m)
    h2 = _coset_core(p, weyl2, params.n)
    if weyl1:
        h1 = h1 * _upper(params.s)
    if weyl2:
        h2 = h2 * _upper(params.t)
    return h1.scale(Fraction(p) ** params.r), h2
