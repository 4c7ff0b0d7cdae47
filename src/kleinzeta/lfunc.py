"""Local Frobenius polynomials on the middle cohomology of the Klein cubic.

A good-prime local factor is det(1 - Frob_p x | H^3), an integer polynomial
of degree 10 and weight 3.  Counts over F_{p^k} give Frobenius power sums
through the Lefschetz fixed-point bookkeeping (the even cohomology of a
smooth cubic threefold contributes 1 + q + q^2 + q^3), Newton's identities
recover the elementary symmetric functions, and the weight-3 functional
equation supplies the top half of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

H3_DEGREE = 10
BAD_PRIME = 11
PURITY_TOLERANCE = 1e-6  # relative, on |lambda| against p^(3/2)


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


def local_factor_power_sums(L: LocalFactor, m: int = 5) -> list:
    """Forward Newton recurrence: power sums of the inverse roots of L."""
    e = [(-1) ** k * L.coeffs[k] for k in range(H3_DEGREE + 1)]
    t = []
    for k in range(1, m + 1):
        acc = (-1) ** (k - 1) * k * e[k] if k <= H3_DEGREE else 0
        for j in range(1, k):
            if k - j <= H3_DEGREE:
                acc += (-1) ** (k - j - 1) * e[k - j] * t[j - 1]
        t.append(acc)
    return t


def _poly_derivative(c):
    return [k * c[k] for k in range(1, len(c))]


def _poly_divmod(a, b):
    """Exact Fraction division of coefficient lists (lowest degree first)."""
    from fractions import Fraction
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while b and b[-1] == 0:
        b.pop()
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = f
        for i, bc in enumerate(b):
            r[shift + i] -= f * bc
    return q, r


def _poly_gcd_q(a, b):
    from fractions import Fraction
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while any(x != 0 for x in b):
        _, r = _poly_divmod(a, b)
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    while a and a[-1] == 0:
        a.pop()
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _squarefree_part(coeffs):
    """Exact square-free part of an integer polynomial (low degree first).

    Repeated inverse roots (they do occur: the degree-10 factor at a split
    p = 1 mod 11 is a fifth power of a quadratic) make companion-matrix
    root finding useless at tight tolerances, so the multiplicity is
    stripped exactly before any floating point happens.
    """
    g = _poly_gcd_q(list(coeffs), _poly_derivative(list(coeffs)))
    if len(g) <= 1:
        return [float(c) for c in coeffs]
    q, r = _poly_divmod(list(coeffs), g)
    if any(x != 0 for x in r):
        raise ArithmeticError("square-free reduction failed to divide exactly")
    return [float(x) for x in q]


def weil_bound_check(L: LocalFactor) -> bool:
    """Purity: every inverse root has absolute value p^(3/2), up to the
    relative PURITY_TOLERANCE."""
    sf = _squarefree_part(L.coeffs)
    # numpy expects highest degree first; roots r of P are 1/lambda
    roots = np.roots(sf[::-1])
    if len(roots) != len(sf) - 1 or not np.all(np.isfinite(roots)):
        raise ArithmeticError("root finding failed on the square-free part")
    target = L.p ** 1.5
    lam = 1.0 / np.abs(roots)
    return bool(np.all(np.abs(lam - target) <= PURITY_TOLERANCE * target))
