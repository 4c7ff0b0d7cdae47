"""The brute-force rho route for the tests.

Exact 2x2 matrices are `thetasupp.PadicMat2` values; `mat` builds one from
ints or Fractions.  rho(h1, h2) x = h1^-1 x h2 (`rho_act`) moves them, and
`in_lattice` tests the entry constraints of `thetasupp.lev_support` on the
result.  On top of that sit a parameter tuple of a coset type
(CosetParams) with its exact coset pair (h1, h2), against which the tests
hold the scanner's closed-form kernels and entry rules, and the sampled
stabilizer check (`sampled_invariance`: fixed probes under fixed pairs of
Gamma_0(p^2)^2), against which they hold the valuation proof of
`thetasupp.stabilizer_invariance_check`."""

from dataclasses import dataclass
from fractions import Fraction

from kleinzeta.linalg import EXACT_SCALARS, common_denominator
from kleinzeta.thetasupp import _N_SHIFT, _WEYL, COSET_TYPES, PadicMat2, _coset_core, _val_int

IDENTITY = PadicMat2(1, 0, 0, 1)


def mat(a, b, c, d) -> PadicMat2:
    """The matrix of four ints or Fractions."""
    nums, den = common_denominator((a, b, c, d))
    return PadicMat2(*nums, den)


def scale(M: PadicMat2, f) -> PadicMat2:
    """f M for an int or Fraction f."""
    if not isinstance(f, EXACT_SCALARS):
        raise TypeError(f"matrix scale must be int or Fraction, got {f!r}")
    n = f.numerator
    return PadicMat2(M.a * n, M.b * n, M.c * n, M.d * n, M.den * f.denominator)


def upper(x) -> PadicMat2:
    """U(x) = [[1, x], [0, 1]]."""
    return mat(1, x, 0, 1)


def rho_act(h1: PadicMat2, h2: PadicMat2, x: PadicMat2) -> PadicMat2:
    """rho(h1, h2) x = h1^-1 x h2, computed exactly."""
    return h1.inv() * x * h2


def e1_matrix(p: int) -> PadicMat2:
    return PadicMat2(0, 1, 0, 0, p)


def alpha_matrix(p: int) -> PadicMat2:
    return PadicMat2(1, 0, 0, -1, p)


def in_lattice(p: int, x: PadicMat2, constraints) -> bool:
    """Whether every entry meets its constraint (four, row major), read off
    v(e) - v(den)."""
    vden = _val_int(p, x.den)
    return all(c.satisfied(_val_int(p, e, vden))
               for c, e in zip(constraints, (x.a, x.b, x.c, x.d), strict=True))


def in_support_pair(p: int, x1: PadicMat2, x2: PadicMat2, supports) -> bool:
    L1, L2 = supports
    return in_lattice(p, x1, L1) and in_lattice(p, x2, L2)


# ---------------------------------------------------------------------------
# the sampled stabilizer check


def default_invariance_samples(p: int):
    """Deterministic pairs from Gamma_0(p^2) x Gamma_0(p^2) with equal dets."""
    def lower(c):
        return PadicMat2(1, 0, c, 1)

    # det(2 - p^2) pair is a p-adic unit for every odd p
    return [
        (IDENTITY, IDENTITY),
        (upper(1), upper(-1)),
        (upper(3), upper(-3)),
        (upper(p), upper(-p)),
        (lower(p * p), IDENTITY),
        (IDENTITY, lower(p * p)),
        (lower(2 * p * p), lower(-p * p)),
        (upper(1) * lower(p * p), lower(p * p) * upper(-2)),
        (PadicMat2(1, 0, 0, 2), PadicMat2(2, 0, 0, 1)),
        (PadicMat2(2, 1, p * p, 1), PadicMat2(1, 1, 0, 2 - p * p)),
    ]


def default_invariance_probes(p: int):
    e1, al = e1_matrix(p), alpha_matrix(p)
    return [
        (e1, al),
        (IDENTITY, IDENTITY),
        (scale(e1, p), scale(al, p)),
        (e1, IDENTITY),
        (PadicMat2(p, 1, p * p, 0, p), al),
        (PadicMat2(0, 1, 0, p, p), scale(al, -1)),
        (PadicMat2(0, 1, 0, 0, p * p), al),     # e1 / p
    ]


def sampled_invariance(p: int, supports) -> bool:
    """Whether every probe pair keeps its support verdict under every sample
    pair: the support test once per probe, then once per (sample, probe)."""
    probes = default_invariance_probes(p)
    before = [in_support_pair(p, x1, x2, supports) for x1, x2 in probes]
    for g1, g2 in default_invariance_samples(p):
        for (x1, x2), inside in zip(probes, before):
            after = in_support_pair(p, rho_act(g1, g2, x1), rho_act(g1, g2, x2), supports)
            if inside != after:
                return False
    return True


# ---------------------------------------------------------------------------
# coset representatives


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
    h1 = upper(params.x) * _coset_core(p, weyl1, params.m)
    h2 = _coset_core(p, weyl2, params.n)
    if weyl1:
        h1 = h1 * upper(params.s)
    if weyl2:
        h2 = h2 * upper(params.t)
    return scale(h1, Fraction(p) ** params.r), h2
