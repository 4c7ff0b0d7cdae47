"""Local Frobenius polynomials on the middle cohomology of the Klein cubic.

A good-prime local factor is det(1 - Frob_p x | H^3), an integer polynomial
of degree 10 and weight 3.  Counts over F_{p^k} give Frobenius power sums
through the Lefschetz fixed-point bookkeeping (the even cohomology of a
smooth cubic threefold contributes 1 + q + q^2 + q^3), Newton's identities
recover the elementary symmetric functions, and the weight-3 functional
equation supplies the top half of the coefficients.  Purity (every inverse
root of modulus p^(3/2)) is decided exactly, by a Sturm chain in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .poly import pdivmod

H3_DEGREE = 10
BAD_PRIME = 11


class InconsistentCounts(ArithmeticError):
    """The input counts are wrong: a power sum breaks the Weil bound, or a
    Newton step fails to divide exactly.

    An ArithmeticError, not a ValueError: counts that cannot be right are a
    failed computation, like an exact division that does not divide, so the
    check they feed fails (exit 1).  They are not bad usage (exit 2)."""


def _even_part(p: int, k: int) -> int:
    pk = p ** k
    return 1 + pk + pk * pk + pk ** 3


@dataclass(frozen=True)
class PowerSums:
    p: int
    values: tuple  # t_1 .. t_m, integers

    def __post_init__(self):
        for k, t in enumerate(self.values, start=1):
            # Weil bound: |t_k| <= 10 p^(3k/2), checked as an exact inequality
            if t * t > 100 * self.p ** (3 * k):
                raise InconsistentCounts(f"power sum t_{k} = {t} violates the Weil bound")


def counts_to_power_sums(counts, p: int) -> PowerSums:
    """t_k = (1 + p^k + p^2k + p^3k) - #X(F_{p^k})."""
    if p == BAD_PRIME:
        raise ValueError("p = 11 is the bad prime; no good-reduction local data")
    values = tuple(_even_part(p, k) - int(n) for k, n in enumerate(counts, start=1))
    return PowerSums(p, values)


@dataclass(frozen=True)
class LocalFactor:
    p: int
    coeffs: tuple  # c_0 .. c_10 of det(1 - Frob x | H^3)

    def __post_init__(self):
        if len(self.coeffs) != H3_DEGREE + 1:
            raise ValueError("local factor must have degree 10")
        if self.coeffs[0] != 1:
            raise ValueError("constant coefficient must be 1")
        for j in range(5):
            expected = self.p ** (3 * (5 - j)) * self.coeffs[j]
            if self.coeffs[10 - j] != expected:
                raise ValueError(
                    f"functional equation broken at c_{10 - j}: "
                    f"{self.coeffs[10 - j]} != p^{3 * (5 - j)} * c_{j}")


def power_sums_to_local_factor(ps: PowerSums) -> LocalFactor:
    """Newton's identities (exact) plus the weight-3 functional equation."""
    t = ps.values
    if len(t) < 5:
        raise ValueError("need the first five power sums")
    e = [1]  # e_0
    for k in range(1, 6):
        acc = 0
        for j in range(1, k + 1):
            acc += (-1) ** (j - 1) * e[k - j] * t[j - 1]
        if acc % k != 0:
            raise InconsistentCounts(f"Newton step e_{k}: {acc} not divisible by {k}")
        e.append(acc // k)
    c = [(-1) ** k * e[k] for k in range(6)]
    p = ps.p
    full = c + [p ** (3 * (5 - j)) * c[j] for j in range(4, -1, -1)]
    return LocalFactor(p, tuple(full))


def _trace_polynomial(L: LocalFactor) -> list:
    """R(y), low degree first, with x^5 R(x + q/x) = x^10 L(1/x), q = p^3.

    The functional equation pairs c_j x^(5-j) with c_(10-j) x^(j-5) =
    c_j (q/x)^(5-j), so R = c_5 + sum_(j=1..5) c_(5-j) D_j, where
    D_j(x + q/x) = x^j + (q/x)^j: D_0 = 2, D_1 = y, D_(j+1) = y D_j - q D_(j-1).
    R is monic of degree 5; its roots are lambda + q/lambda over the inverse
    roots lambda of L, taken in pairs.
    """
    c, q = L.coeffs, L.p ** 3
    R = [c[5]] + [0] * 5
    prev, cur = [2], [0, 1]
    for j in range(1, 6):
        for i, d in enumerate(cur):
            R[i] += c[5 - j] * d
        nxt = [0] + cur
        for i, d in enumerate(prev):
            nxt[i] -= q * d
        prev, cur = cur, nxt
    return R


def _sign_at_sqrt(s: list, N: int, side: int) -> int:
    """Sign of s(side sqrt N), side = +-1, for a non-square N, in integers:
    with s(y) = A(y^2) + y B(y^2), s(+-sqrt N) = A(N) +- sqrt(N) B(N)."""
    a = sum(x * N ** i for i, x in enumerate(s[0::2]))
    b = side * sum(x * N ** i for i, x in enumerate(s[1::2]))
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > N * b * b else sb


def _sturm_next(a: list, b: list) -> list:
    """-(a mod b) times a positive rational, primitive: the member of a Sturm
    chain after a and b."""
    r = pdivmod(a, b)[1]
    g = math.gcd(*r)
    return [-x // g for x in r]


def weil_bound_check(L: LocalFactor) -> bool:
    """Purity, exactly: every inverse root has absolute value p^(3/2).

    With q = p^3, L is pure iff every root of the trace polynomial R (see
    _trace_polynomial) is real and lies in [-2 sqrt q, 2 sqrt q] (Kedlaya,
    Search techniques for root-unitary polynomials, 2008).  N = 4q is never
    a square.  Real inverse roots +-sqrt q give roots +-sqrt N of R, so the
    factors y^2 - N are divided out first; then a Sturm chain of primitive
    integer pseudo-remainders counts the distinct roots in the open interval,
    with its signs at +-sqrt N read in integers, and L is pure iff that is
    every distinct root, deg R - deg gcd(R, R').  Repeated roots occur: the
    factor at a split p = 1 mod 11 is a fifth power of a quadratic.
    """
    N = 4 * L.p ** 3
    R = _trace_polynomial(L)
    while not (split := pdivmod(R, [-N, 0, 1]))[1]:  # y^2 - N divides R
        R = split[0]
    chain = [R, [i * x for i, x in enumerate(R)][1:]]
    while len(chain[-1]) > 1:
        nxt = _sturm_next(chain[-2], chain[-1])
        if not nxt:
            break
        chain.append(nxt)

    def variations(side):
        signs = [s for s in (_sign_at_sqrt(f, N, side) for f in chain) if s]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    distinct = len(R) - len(chain[-1])
    return variations(-1) - variations(1) == distinct
