"""Arithmetic of Q(sqrt(-11)) and the attached modular data.

For split p the coefficient a_p of the weight-2 CM newform of level 121 is
the trace of the distinguished generator of a prime above p: among the two
generators +-(a + b*sqrt(-11))/2 of norm p, the character picks the one
whose image in the residue field F_11 at sqrt(-11) is a nonzero square.
The weight-4 coefficients come from the cube of the same Frobenius pair,
and the order-5 character of conductor 11 (2 bar -> zeta_5) twists the five
factors whose product is the degree-10 local factor on H^3.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .cyclo import CyclotomicNumber
from .ffield import is_prime
from .lfunc import BAD_PRIME, LocalFactor

SPLIT_RESIDUES = frozenset({1, 3, 4, 5, 9})      # nonzero squares mod 11
# discrete log base 2 in (Z/11)^*; 2 is a primitive root
DLOG2_MOD_11 = {1: 0, 2: 1, 4: 2, 8: 3, 5: 4, 10: 5, 9: 6, 7: 7, 3: 8, 6: 9}
INV2_MOD_11 = 6


def split_type(p: int) -> str:
    """'split', 'inert' or 'ramified' in Q(sqrt(-11))."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == BAD_PRIME:
        return "ramified"
    return "split" if p % 11 in SPLIT_RESIDUES else "inert"


def solve_norm_form(p: int) -> tuple:
    """The positive solution of a^2 + 11 b^2 = 4p (split p only)."""
    for b in range(1, math.isqrt(4 * p // 11) + 1):
        rem = 4 * p - 11 * b * b
        if rem <= 0:
            break
        a = math.isqrt(rem)
        if a * a == rem:
            return a, b
    raise ValueError(f"4*{p} is not represented by a^2 + 11 b^2; p is not split")


@dataclass(frozen=True)
class QuadInt:
    """(a + b*sqrt(-11)) / 2 with a = b mod 2."""
    a: int
    b: int

    def __post_init__(self):
        if (self.a - self.b) % 2 != 0:
            raise ValueError("a and b must have equal parity")

    @property
    def norm(self) -> int:
        n4 = self.a * self.a + 11 * self.b * self.b
        assert n4 % 4 == 0
        return n4 // 4

    @property
    def trace(self) -> int:
        return self.a

    def residue_at_ramified_prime(self) -> int:
        """Image in F_11 = O_K / (sqrt(-11)), i.e. a/2 mod 11."""
        return (self.a * INV2_MOD_11) % 11


def distinguished_generator(p: int) -> QuadInt:
    """The norm-p generator whose residue at sqrt(-11) is a nonzero square.

    Exactly one of the two generators +-(a + b sqrt(-11))/2 qualifies,
    because -1 is not a square mod 11.
    """
    a, b = solve_norm_form(p)
    g = QuadInt(a, b)
    if g.residue_at_ramified_prime() not in SPLIT_RESIDUES:
        g = QuadInt(-a, -b)
    if g.norm != p:
        raise ArithmeticError(f"norm-form solution does not have norm {p}")
    return g


def ap_f(p: int) -> int:
    """Weight-2 coefficient: trace of the distinguished norm-p generator."""
    if split_type(p) != "split":
        return 0
    return distinguished_generator(p).trace


def ap_g(p: int) -> int:
    """Weight-4 coefficient: pi^3 + pibar^3 = a^3 - 3*p*a with a = ap_f."""
    a = ap_f(p)
    return a ** 3 - 3 * p * a


def chi_dlog(n: int) -> int | None:
    """Discrete log base 2 of n mod 11, or None when 11 | n."""
    r = n % 11
    if r == 0:
        return None
    return DLOG2_MOD_11[r]


def chi(n: int, i: int = 1) -> CyclotomicNumber:
    """chi^i(n) for the order-5 character of conductor 11 with chi(2) = zeta_5."""
    d = chi_dlog(n)
    if d is None:
        return CyclotomicNumber.zero(5)
    return CyclotomicNumber.zeta_pow(5, i * d)


def satake_power_sum(p: int, k: int) -> int:
    """s_k = alpha^k + beta^k for alpha+beta = a_p, alpha*beta = p."""
    a = ap_f(p)
    s_prev, s_cur = 2, a  # s_0, s_1
    if k == 0:
        return s_prev
    for _ in range(k - 1):
        s_prev, s_cur = s_cur, a * s_cur - p * s_prev
    return s_cur


def character_twist_sum(p: int, k: int = 1) -> int:
    """sum_{i=0..4} chi^(ik)(p), evaluated exactly in Q(zeta_5)."""
    total = CyclotomicNumber.zero(5)
    for i in range(5):
        total = total + chi(p, (i * k) % 5)
    r = total.as_rational()
    if r is None or r.denominator != 1:
        raise ArithmeticError("character sum did not land in Z")
    return int(r)


def predicted_power_sum(p: int, k: int) -> int:
    """t_k on H^3 from the CM structure: p^k * s_k * sum_i chi^(ik)(p)."""
    if p == BAD_PRIME:
        raise ValueError("p = 11 is the bad prime")
    return p ** k * satake_power_sum(p, k) * character_twist_sum(p, k)


def trace_prediction(p: int) -> int:
    """Predicted t_1; equals 5*p*a_p when p = 1 mod 11 and 0 otherwise."""
    return predicted_power_sum(p, 1)


def predicted_count(p: int, k: int) -> int:
    """Predicted #X(F_{p^k}) from the trace identity."""
    pk = p ** k
    return 1 + pk + pk * pk + pk ** 3 - predicted_power_sum(p, k)


# ---------------------------------------------------------------------------
# polynomial helpers over Q(zeta_5)


def _poly_mul(a, b):
    n = 5
    out = [CyclotomicNumber.zero(n) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return out


def _twisted_quadratic(p: int, i: int, trace_coeff: int, weight_power: int):
    """1 - trace_coeff * chi^i(p) * T + chi^(2i)(p) * p^weight_power * T^2."""
    return [CyclotomicNumber.one(5), chi(p, i) * -trace_coeff, chi(p, 2 * i) * p ** weight_power]


def h3_local_factor_product(p: int) -> LocalFactor:
    """prod_i (1 - a_p chi^i(p) p x + chi^(2i)(p) p^3 x^2) as an integer factor.

    The chi^(2i) in the quadratic term is the nebentypus of the twist; it is
    what makes the product rational.
    """
    if p == BAD_PRIME:
        raise ValueError("p = 11 is the bad prime")
    a = ap_f(p)
    prod = [CyclotomicNumber.one(5)]
    for i in range(5):
        prod = _poly_mul(prod, _twisted_quadratic(p, i, a * p, 3))
    coeffs = []
    for c in prod:
        r = c.as_rational()
        if r is None or r.denominator != 1:
            raise ArithmeticError(f"non-integral product coefficient {c!r}")
        coeffs.append(int(r))
    return LocalFactor(p, tuple(coeffs))


def spinor_local_factor(p: int, i: int):
    """Degree-4 spinor factor (motivic normalization) over Q(zeta_5):

    (1 - a_p(f) chi^i(p) T + chi^(2i)(p) p T^2)
    (1 - a_p(g) chi^i(p) T + chi^(2i)(p) p^3 T^2)
    """
    if p == BAD_PRIME:
        raise ValueError("p = 11 is the bad prime")
    if not 0 <= i <= 4:
        raise ValueError("twist index must lie in 0..4")
    f_part = _twisted_quadratic(p, i, ap_f(p), 1)
    g_part = _twisted_quadratic(p, i, ap_g(p), 3)
    return _poly_mul(f_part, g_part)


# ---------------------------------------------------------------------------
# tabulation


@dataclass(frozen=True)
class HeckeRecord:
    p: int
    split_type: str
    a: int
    b: int
    ap_f: int
    ap_g: int
    chi_dlog: int | None

    def __post_init__(self):
        if self.split_type in ("inert", "ramified") and (self.ap_f or self.ap_g):
            raise ValueError("CM vanishing broken")
        if self.ap_f * self.ap_f > 4 * self.p:
            raise ValueError("Hasse bound broken")
        if self.ap_g != self.ap_f ** 3 - 3 * self.p * self.ap_f:
            raise ValueError("weight-4 identity broken")


def hecke_record(p: int) -> HeckeRecord:
    st = split_type(p)
    a, b = solve_norm_form(p) if st == "split" else (0, 0)
    return HeckeRecord(p, st, a, b, ap_f(p), ap_g(p), chi_dlog(p))


def primes_up_to(bound: int):
    return [n for n in range(2, bound + 1) if is_prime(n)]


def hecke_table(max_p: int) -> list:
    return [hecke_record(p) for p in primes_up_to(max_p)]


def write_hecke_csv(path, max_p: int) -> int:
    rows = hecke_table(max_p)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "split_type", "a", "b", "ap_f", "ap_g", "chi_dlog"])
        for r in rows:
            w.writerow([r.p, r.split_type, r.a, r.b, r.ap_f, r.ap_g,
                        "" if r.chi_dlog is None else r.chi_dlog])
    return len(rows)
