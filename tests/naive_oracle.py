"""Naive projective oracle for the tests: exhaustive evaluation of an
integer-coefficient `gdcohom.CycPoly` on all of P^(n-1)(F_q), with the
index arithmetic of F_(p^k) it needs.  It shares no equation with the
Jacobi kernel of `counting.count_klein` or with `counting.count_weierstrass`,
and over a prime field no table either (its products are residue products),
so the tests hold both counters to it.

Elements are the package's indices sum c_i p^i of residue polynomials
modulo `build_field`'s modulus: sums add base-p digits, and products add
the discrete logs of `ffield.log_exp_tables`.
"""

from fractions import Fraction

import numpy as np

from kleinzeta.counting import WeierstrassCurve
from kleinzeta.ffield import BudgetExceeded, FieldDescriptor, log_exp_tables
from kleinzeta.gdcohom import CycPoly

NAIVE_POINT_BUDGET = 3_000_000       # max projective points for the oracle


def digitwise_add(F: FieldDescriptor, a, b) -> np.ndarray:
    """Index of a + b, elementwise over broadcast index arrays: the base-p
    digits of the index encoding add mod p (for p = 2, bitwise xor).  A
    scalar b in [0, p) is a prime-field constant and changes digit 0 only."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if F.p == 2:
        return a ^ b
    if b.ndim == 0 and 0 <= b < F.p:
        low = a % F.p
        return a - low + (low + b) % F.p
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    weight = 1
    for _ in range(F.k):
        out += (a // weight + b // weight) % F.p * weight
        weight *= F.p
    return out


def log_exp_mul(F: FieldDescriptor, a, b) -> np.ndarray:
    """Index of a b, elementwise over broadcast index arrays.  In a prime
    field the indices are residues, so it is a b mod p and reads no table;
    in an extension the discrete logs add mod q - 1, and a zero factor
    gives zero."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if F.k == 1:
        return a * b % F.p
    log, exp = log_exp_tables(F)
    out = exp[(log[a] + log[b]) % (F.q - 1)]
    return np.where((a == 0) | (b == 0), 0, out)


def _projective_blocks(q: int, nvars: int):
    """Index grids for the standard representatives: first nonzero coord = 1."""
    for lead in range(nvars):
        free = nvars - lead - 1
        grids = np.meshgrid(*([np.arange(q, dtype=np.int32)] * free), indexing="ij") if free else []
        block = np.zeros((nvars, q ** free if free else 1), dtype=np.int32)
        block[lead, :] = 1  # index of the field element 1
        for j, g in enumerate(grids):
            block[lead + 1 + j, :] = g.ravel()
        yield block


def count_hypersurface_naive(form: CycPoly, F: FieldDescriptor) -> int:
    """Exhaustive evaluation over projective representatives.  Exact oracle.

    The form is a CycPoly with integer coefficients (ints, or Fractions of
    denominator 1), reduced mod p; its exponent tuples give the number of
    variables."""
    if form.is_zero():
        raise ValueError("zero form has no degree")
    nvars = {len(e) for e, _ in form.terms}
    if len(nvars) != 1:
        raise ValueError("exponent tuples of mixed length")
    for _, c in form.terms:
        if not isinstance(c, (int, Fraction)) or Fraction(c).denominator != 1:
            raise ValueError(f"coefficient {c!r} is not an integer")
    q, (n,) = F.q, nvars
    npoints = sum(q ** (n - 1 - i) for i in range(n))
    if npoints > NAIVE_POINT_BUDGET:
        raise BudgetExceeded(f"{npoints} projective points exceed the budget {NAIVE_POINT_BUDGET}")
    # POW[e][x] = x^e as index; constants are prime-field elements, index n mod p
    xs = np.arange(q, dtype=np.int64)
    POW = [np.ones(q, dtype=np.int64), xs]
    for _ in range(2, form.degree + 1):
        POW.append(log_exp_mul(F, POW[-1], xs))
    count = 0
    for block in _projective_blocks(q, n):
        acc = np.zeros(block.shape[1], dtype=np.int64)
        for exps, coeff in form.terms:
            mono = np.full(block.shape[1], int(coeff) % F.p, dtype=np.int64)
            for v, e in enumerate(exps):
                if e:
                    mono = log_exp_mul(F, mono, POW[e][block[v]])
            acc = digitwise_add(F, acc, mono)
        count += int((acc == 0).sum())
    return count


def projective_form(E: WeierstrassCurve) -> CycPoly:
    """Y^2 Z + a1 XYZ + a3 YZ^2 - X^3 - a2 X^2 Z - a4 XZ^2 - a6 Z^3 in (X, Y, Z)."""
    return CycPoly.make({(0, 2, 1): 1, (1, 1, 1): E.a1, (0, 1, 2): E.a3,
                         (3, 0, 0): -1, (2, 0, 1): -E.a2, (1, 0, 2): -E.a4,
                         (0, 0, 3): -E.a6})
