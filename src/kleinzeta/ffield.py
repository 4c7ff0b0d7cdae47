"""Exact arithmetic in F_p and F_{p^k}.

Elements of F_{p^k} are residue polynomials modulo a fixed monic primitive
modulus, stored little-endian in the root, and are encoded as the integer
index sum of c_i * p^i.  Primitive means that the root x generates
F_q^*, so one test (is_primitive) certifies both the field and its
generator.  The one field table is a pair of O(q) numpy vectors, the
discrete log and exp of x, and its one reader is the Klein counter's
Jacobi walk, on F_(p^f) with f = ord_11(p) and only when 11 divides
q - 1.  Residues mod p of poly's coefficient lists are used only to search
the modulus; the log/exp walk steps by the modulus's companion matrix.
One size rule, field_order, refuses a (p, k) past the tables' limit, for
build_field, log_exp_tables and the Klein counter alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .poly import mul, pdivmod, trim

LOG_TABLE_MAX_Q = 1 << 20  # largest q with log/exp vectors, hence largest q field_order accepts


class BudgetExceeded(ValueError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24; below 41^2 the
    trial division by the primes up to 37 settles n alone."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
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
# polynomial arithmetic over F_p on coefficient lists, used only to test a
# modulus; the hot loops use log/exp vectors

def _poly_mulmod(a, b, modulus, p):
    return trim([c % p for c in pdivmod(mul(a, b), modulus)[1]])


def _poly_powmod(base, e, modulus, p):
    result = [1]
    cur = list(base)
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, cur, modulus, p)
        cur = _poly_mulmod(cur, cur, modulus, p)
        e >>= 1
    return result


def _generates(a: int, p: int) -> bool:
    """a generates F_p^*: a != 0 and a^((p-1)/l) != 1 for each prime l | p - 1."""
    return a % p != 0 and all(pow(a, (p - 1) // ell, p) != 1 for ell in prime_factors(p - 1))


def is_primitive(modulus, p: int) -> bool:
    """True exactly when x has multiplicative order q - 1 = p^k - 1 modulo
    the monic modulus (c_0, ..., c_(k-1), 1).

    Such a modulus is irreducible and x generates F_q^*: x^0 .. x^(q-2) are
    q - 1 distinct units of F_p[x]/(modulus), a ring of q elements, so every
    nonzero residue is a unit and the ring is a field.

    The test reads the norm first, in integers.  In that field the norm of
    x, (-1)^k c_0, is x^((q-1)/(p-1)), of order p - 1, so it must generate
    F_p^*: one integer power per prime factor of p - 1.  This rejects
    c_0 = 0, and at k = 1, where x = -c_0, it is the whole test.  Otherwise
    x^q = x, that is x^(q-1) = 1 since c_0 != 0 makes x a unit, and
    x^((q-1)/l) != 1 for each prime l dividing q - 1."""
    k = len(modulus) - 1
    q = p ** k
    if not _generates((-1) ** k * modulus[0], p):
        return False
    if k == 1:
        return True
    x = [0, 1]
    return _poly_powmod(x, q, modulus, p) == x and all(
        _poly_powmod(x, (q - 1) // ell, modulus, p) != [1] for ell in prime_factors(q - 1))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDescriptor:
    """Immutable description of F_{p^k} by a primitive modulus (build_field's)."""
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

    The modulus is the first primitive monic polynomial (see is_primitive)
    in ascending lexicographic order of the non-leading coefficient tuple
    (c_0, ..., c_(k-1)), c_0 most significant, so its root x generates
    F_q^* and is the generator of log_exp_tables.  Counts do not depend on
    the modulus; pinning it keeps element indices, and so the log/exp
    tables, the same from run to run.  A block of candidates whose c_0
    fails is_primitive's norm test is skipped whole.
    """
    field_order(p, k)
    for c0 in range(1, p):
        if not _generates((-1) ** k * c0, p):  # the norm of x: see is_primitive
            continue
        for tail in product(range(p), repeat=k - 1):  # c_1 most significant after c_0
            modulus = (c0, *tail, 1)
            if is_primitive(modulus, p):
                return FieldDescriptor(p, k, modulus)
    raise RuntimeError("no primitive modulus found")  # unreachable


# ---------------------------------------------------------------------------
# log/exp vectors, keyed by element index


@lru_cache(maxsize=1)
def _log_exp_cached(p: int, k: int, modulus: tuple) -> tuple:
    # coefficient rows of x^0 .. x^(n - 1) times the matrix of x^n give
    # x^n .. x^(2n - 1); squaring the matrix doubles n.  The matrix of x is
    # the companion matrix: row i holds x^(i + 1), and x^k = -(c_0 + ... +
    # c_(k-1) x^(k-1))
    q = p ** k
    powers = np.zeros((q - 1, k), dtype=np.int64)
    powers[0, 0] = 1
    step = np.eye(k, k, 1, dtype=np.int64)
    step[-1] = [-c % p for c in modulus[:-1]]
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
    """(log, exp) for the generator x, the root of F's modulus: exp[e] is
    the index of x^e, e < q - 1, and log inverts it on nonzero indices
    (log[0] is 0 and means nothing).  O(q) memory; the package's only
    field-arithmetic table.  field_order refuses a q past the tables' limit,
    as it does for build_field.  Only the last field's tables are kept:
    every caller reads one field at a time."""
    field_order(F.p, F.k)
    return _log_exp_cached(F.p, F.k, F.modulus)
