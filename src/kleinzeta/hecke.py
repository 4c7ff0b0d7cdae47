"""Arithmetic of Q(sqrt(-11)) and the attached modular data.

For split p the coefficient a_p of the weight-2 CM newform of level 121 is
read off the positive solution of a^2 + 11 b^2 = 4p.  The two generators of
norm p of a prime above p are +-(a + b*sqrt(-11))/2, of traces +-a, and the
character picks the one whose residue a/2 in F_11 = O_K/(sqrt(-11)) is a
nonzero square; exactly one sign qualifies, because -1 is not a square mod 11.
The weight-4 coefficients come from the cube of the same Frobenius pair,
and the order-5 character of conductor 11 (2 bar -> zeta_5) twists the five
factors whose product is the degree-10 local factor on H^3.

That product is read in integers.  Put t = a_p p, n = p^3 and
d = dlog_2(p) mod 5, so chi(p) = zeta_5^d.  The twist by w = chi^i(p) is
1 - t w x + w^2 n x^2 = (1 - alpha w x)(1 - beta w x), with alpha + beta = t
and alpha beta = n.  If d = 0, all five twists are 1 - t x + n x^2, and the
product is its fifth power.  Otherwise w runs over every fifth root of
unity, prod_w (1 - alpha w x) = 1 - alpha^5 x^5, and the product is
1 - (alpha^5 + beta^5) x^5 + n^5 x^10.  Likewise
sum_i chi^(ik)(p) = sum_i zeta_5^(ikd) is 5 when 5 | k d and 0 otherwise.
The spinor factors are read the same way: each is one integer quartic at
T -> chi^i(p) T, so its coefficients are integers times powers of zeta_5,
kept as lists in Z[z]/(z^5 - 1) (see poly).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import compress

from .ffield import is_prime
from .lfunc import BAD_PRIME, LocalFactor
from .poly import mul

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


def ap_f(p: int) -> int:
    """Weight-2 coefficient: +-a for a^2 + 11 b^2 = 4p, the sign that makes
    a/2 a nonzero square mod 11; 0 at inert p and at 11."""
    if split_type(p) != "split":
        return 0
    a, _ = solve_norm_form(p)
    return a if a * INV2_MOD_11 % 11 in SPLIT_RESIDUES else -a


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
    """sum_{i=0..4} chi^(ik)(p): 5 when chi^k(p) = 1, that is when
    5 | k dlog_2(p), and 0 otherwise, also at 11 | p, where chi(p) = 0."""
    d = chi_dlog(p)
    return 0 if d is None or k * d % 5 else 5


def predicted_power_sum(p: int, k: int) -> int:
    """t_k on H^3 from the CM structure: p^k * s_k * sum_i chi^(ik)(p).

    At p = 11, chi(11) = 0 makes t_k = 0, so predicted_count is
    1 + q + q^2 + q^3: the count that counting.count_klein's slice lemma
    gives whenever 11 does not divide q - 1."""
    return p ** k * satake_power_sum(p, k) * character_twist_sum(p, k)


def predicted_count(p: int, k: int) -> int:
    """Predicted #X(F_{p^k}) from the trace identity."""
    pk = p ** k
    return 1 + pk + pk * pk + pk ** 3 - predicted_power_sum(p, k)


def h3_local_factor_product(p: int) -> LocalFactor:
    """prod_i (1 - a_p chi^i(p) p x + chi^(2i)(p) p^3 x^2) as an integer factor.

    The chi^(2i) in the quadratic term is the nebentypus of the twist; it is
    what makes the product rational.  With t = a_p p and n = p^3, each twist
    is (1 - alpha w x)(1 - beta w x), w = chi^i(p), alpha + beta = t and
    alpha beta = n.  When chi(p) = 1 the product is (1 - t x + n x^2)^5.
    Otherwise w runs over all fifth roots of unity, so
    prod_w (1 - alpha w x) = 1 - alpha^5 x^5, and the product is
    1 - s_5 x^5 + n^5 x^10.  Here alpha = p alpha_f and beta = p beta_f for
    the Satake pair of f, so s_5 = alpha^5 + beta^5 = p^5 satake_power_sum(p, 5).
    """
    if p == BAD_PRIME:
        raise ValueError("p = 11 is the bad prime")
    t, n = ap_f(p) * p, p ** 3
    if chi_dlog(p) % 5 == 0:
        coeffs = [1]
        for _ in range(5):
            coeffs = mul(coeffs, [1, -t, n])
        return LocalFactor(p, tuple(coeffs))
    s5 = p ** 5 * satake_power_sum(p, 5)
    return LocalFactor(p, (1, 0, 0, 0, 0, -s5, 0, 0, 0, 0, n ** 5))


def spinor_local_factor(p: int, i: int) -> list:
    """Degree-4 spinor factor (motivic normalization) over Q(zeta_5):

    (1 - a_p(f) chi^i(p) T + chi^(2i)(p) p T^2)
    (1 - a_p(g) chi^i(p) T + chi^(2i)(p) p^3 T^2),

    as five coefficients, each a length-5 list of Z[z]/(z^5 - 1).  It is the
    integer quartic sum_k c_k T^k = (1 - a_p(f) T + p T^2)(1 - a_p(g) T + p^3 T^2)
    at T -> chi^i(p) T, so coefficient k is c_k z^(i d k mod 5), d = dlog_2(p).
    """
    if p == BAD_PRIME:
        raise ValueError("p = 11 is the bad prime")
    if not 0 <= i <= 4:
        raise ValueError("twist index must lie in 0..4")
    coeffs = mul([1, -ap_f(p), p], [1, -ap_g(p), p ** 3])
    d = chi_dlog(p)
    return [[c if m == i * d * k % 5 else 0 for m in range(5)] for k, c in enumerate(coeffs)]


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
            raise ArithmeticError("CM vanishing broken")
        if self.ap_f * self.ap_f > 4 * self.p:
            raise ArithmeticError("Hasse bound broken")
        if self.ap_g != self.ap_f ** 3 - 3 * self.p * self.ap_f:
            raise ArithmeticError("weight-4 identity broken")


def hecke_record(p: int) -> HeckeRecord:
    st = split_type(p)
    a, b = solve_norm_form(p) if st == "split" else (0, 0)
    return HeckeRecord(p, st, a, b, ap_f(p), ap_g(p), chi_dlog(p))


def primes_up_to(bound: int) -> list:
    """The primes p <= bound, by the sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for n in range(2, math.isqrt(bound) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, bound + 1, n)))
    return list(compress(range(bound + 1), sieve))


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
