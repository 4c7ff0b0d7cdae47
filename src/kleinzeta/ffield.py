"""Exact arithmetic in F_p and F_{p^k}.

Elements of F_{p^k} are residue polynomials modulo a fixed monic irreducible
modulus, stored little-endian in the root, and are encoded as the integer
index sum of c_i * p^i.  The one field table is a pair of O(q) numpy
vectors, the discrete log and exp of one generator, and its one reader is
the Klein counter's Jacobi walk, on F_(p^f) with f = ord_11(p) and only
when 11 divides q - 1.  Residues mod p of poly's coefficient lists are used
only to build the field: the modulus search, the generator and the matrix
of the log/exp walk's step.  One size rule, field_order, refuses a (p, k)
past the tables' limit, for build_field and the Klein counter alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly import mul, pdivmod, trim

LOG_TABLE_MAX_Q = 1 << 20  # largest q with log/exp vectors, hence largest q field_order accepts


class BudgetExceeded(ValueError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p on coefficient lists, used only at build
# time; the hot loops use log/exp vectors

def _poly_mulmod(a, b, modulus, p):
    return trim([c % p for c in pdivmod(mul(a, b), modulus)[1]])


def _poly_powmod(base, e, modulus, p):
    if len(base) <= 1:  # a constant's powers stay in F_p: one integer power
        c = pow(base[0] if base else 0, e, p)
        return [c] if c else []
    result = [1]
    cur = list(base)
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, cur, modulus, p)
        cur = _poly_mulmod(cur, cur, modulus, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = trim(a), trim(b)
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        b = [c * inv_lead % p for c in b]  # monic, so pdivmod needs no scale
        a, b = b, trim([c % p for c in pdivmod(a, b)[1]])
    return a


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return trim([(x - y) % p for x, y in zip(a, b)])


def is_irreducible(modulus, p: int) -> bool:
    """Rabin test: x^(p^k) == x mod f and gcd(x^(p^(k/l)) - x, f) = 1."""
    k = len(modulus) - 1
    if k < 1 or modulus[-1] != 1:
        return False
    if k == 1:
        return True
    x = [0, 1]
    xq = _poly_powmod(x, p ** k, modulus, p)
    if _poly_sub(xq, x, p):
        return False
    for ell in prime_factors(k):
        xe = _poly_powmod(x, p ** (k // ell), modulus, p)
        g = _poly_gcd(_poly_sub(xe, x, p), modulus, p)
        if len(g) != 1:
            return False
    return True


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDescriptor:
    """Immutable description of F_{p^k} with a verified irreducible modulus."""
    p: int
    k: int
    modulus: tuple  # monic, little-endian, length k+1

    @property
    def q(self) -> int:
        return self.p ** self.k


def field_order(p: int, k: int) -> int:
    """q = p^k, or the refusal of (p, k): ValueError for a non-prime p or
    k < 1, BudgetExceeded for q past LOG_TABLE_MAX_Q.  The one size rule,
    read by build_field and by the Klein counter, which builds no field
    when 11 does not divide q - 1."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    # p >= 2, so k past log2 of the limit refuses before p^k is formed
    if k >= LOG_TABLE_MAX_Q.bit_length() or p ** k > LOG_TABLE_MAX_Q:
        raise BudgetExceeded(f"q = {p}^{k} exceeds the log/exp limit {LOG_TABLE_MAX_Q}")
    return p ** k


def build_field(p: int, k: int = 1) -> FieldDescriptor:
    """Deterministic field constructor; field_order refuses (p, k) first.

    The modulus is the first irreducible monic polynomial in ascending
    lexicographic order of the non-leading coefficient tuple
    (c_0, ..., c_{k-1}), c_0 most significant.  Counts do not depend on
    the modulus; pinning it keeps element indices, and so the log/exp
    tables, the same from run to run.

    For k >= 2 the search starts at c_0 = 1: a candidate with c_0 = 0 is
    divisible by x, hence reducible, so skipping the first p^(k-1)
    candidates returns the same modulus without Rabin-testing them.
    """
    field_order(p, k)
    if k == 1:
        return FieldDescriptor(p, 1, (0, 1))
    for idx in range(p ** (k - 1), p ** k):  # c0 = idx // p^(k-1) >= 1
        digits = []
        rest = idx
        for _ in range(k):
            digits.append(rest % p)
            rest //= p
        coeffs = tuple(reversed(digits))  # c0 most significant in the search order
        modulus = coeffs + (1,)
        if is_irreducible(modulus, p):
            return FieldDescriptor(p, k, modulus)
    raise RuntimeError("no irreducible modulus found")  # unreachable


# ---------------------------------------------------------------------------
# log/exp vectors, keyed by element index


def _mul_matrix(F: FieldDescriptor, h: list) -> np.ndarray:
    """k x k matrix of a -> a h on coefficient row vectors: row i holds x^i h."""
    rows, cur = [], h
    for _ in range(F.k):
        rows.append(cur + [0] * (F.k - len(cur)))
        cur = _poly_mulmod(cur, [0, 1], F.modulus, F.p)
    return np.array(rows, dtype=np.int64)


@lru_cache(maxsize=1)
def _log_exp_cached(p: int, k: int, modulus: tuple) -> tuple:
    # coefficient rows of g^0 .. g^(n - 1) times the matrix of g^n give
    # g^n .. g^(2n - 1); squaring the matrix doubles n
    F = FieldDescriptor(p, k, modulus)
    q = F.q
    powers = np.zeros((q - 1, k), dtype=np.int64)
    powers[0, 0] = 1
    step = _mul_matrix(F, _find_generator(F))
    n = 1
    while n < q - 1:
        m = min(n, q - 1 - n)
        powers[n:n + m] = powers[:m] @ step % p
        step = step @ step % p
        n += m
    exp = powers @ (p ** np.arange(k, dtype=np.int64))
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    log.setflags(write=False)
    exp.setflags(write=False)
    return log, exp


def log_exp_tables(F: FieldDescriptor) -> tuple:
    """(log, exp) for one generator g: exp[e] is the index of g^e, e < q - 1,
    and log inverts it on nonzero indices (log[0] is 0 and means nothing).
    O(q) memory; the package's only field-arithmetic table.  Only the last
    field's tables are kept: every caller reads one field at a time."""
    if F.q > LOG_TABLE_MAX_Q:
        raise ValueError(f"q = {F.q} too large for log/exp tables")
    return _log_exp_cached(F.p, F.k, F.modulus)


def _find_generator(F: FieldDescriptor) -> list:
    """Coefficients of the nonzero element of least index whose order is q - 1.

    The first p - 1 candidates are constants, each tested by one integer
    power per prime factor of q - 1 (see _poly_powmod)."""
    q, p = F.q, F.p
    fac = prime_factors(q - 1)
    for idx in range(1, q):
        g, rest = [], idx
        while rest:
            rest, c = divmod(rest, p)
            g.append(c)
        if all(_poly_powmod(g, (q - 1) // ell, F.modulus, p) != [1] for ell in fac):
            return g
    raise RuntimeError("no generator found")  # unreachable for a true field
