"""Point counting for the Klein cubic threefold and Weierstrass curves.

The projective count #X(P^4(F_q)) is computed from the affine count as
(N_aff - 1)/(q - 1).  The form is homogeneous, so every fiber x1 = c != 0
of the affine cone is a copy of the x1 = 1 slice, and only that slice
(N1 points) needs counting:

    N_aff = (q - 1) N1 + q^2 (q - 1) + q (2q - 1),

the last two terms being the x1 = 0 fiber.  On the slice, the equation
x0^2 + x4^2 x0 + (x2 + x2^2 x3 + x3^2 x4) = 0 is quadratic in x0 and its
discriminant is quadratic in x2, so the character sum over x0 and x2 has a
closed form (Lidl-Niederreiter, Finite Fields, Thm 5.48):

    odd q:  N1 = q^3 + q sum_{x3 != 0} chi(-x3) R(x3),
            R(x3) = #{x4 : x3 x4^4 - 4 x3^3 x4 + 1 = 0},
    q = 2^k: N1 = q^3 + q sum_{u != 0} (-1)^Tr(u^11)

(the second by Artin-Schreier: x^2 + x = c is solvable iff Tr(c) = 0).
For odd q the monomial substitution u = x3 x4^4, v = x3^3 x4, of
determinant -11, turns the sum over the curve into one over the line
u = 4v - 1 (Delsarte 1951; Shioda 1986).  Cost O(q k) for every q, in O(q)
memory, on the field's discrete-log/exp vectors.

The naive projective oracle evaluates an integer-coefficient `gdcohom.CycPoly`
on all of P^(n-1)(F_q).  It shares no equation with the slice counter, and
over a prime field no table either (its products are residue products); at
p = 2 it also counts the Weierstrass curves.  For odd p a curve's count is
#E(F_q) = 1 + sum_x r(f(x)), r(c) the number of square roots of c, which
reads no discrete log.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ffield import (BudgetExceeded, FieldDescriptor, build_field, digitwise_add, log_exp_mul,
                     log_exp_tables)
from .gdcohom import CycPoly, klein_form

NAIVE_POINT_BUDGET = 3_000_000       # max projective points for the oracle


class BadReduction(ValueError):
    pass


# ---------------------------------------------------------------------------
# fast Klein counter


def _odd_slice_sum(F: FieldDescriptor) -> int:
    """sum_{x3 != 0} chi(-x3) R(x3) in one O(q) pass (Delsarte's reduction).

    The sum runs over the torus points of x3 x4^4 - 4 x3^3 x4 + 1 = 0 (x4 = 0
    is never a root), weighted by chi(-x3).  Put u = x3 x4^4, v = x3^3 x4,
    so the curve becomes the line u = 4v - 1.  With m = q - 1 and
    (a, b) = (log x3, log x4), the logs (log u, log v) = (a + 4b, 3a + b)
    are the image of the exponent matrix [[1, 4], [3, 1]], of determinant
    -11, acting on (Z/m)^2:

    * its kernel is {(a, -3a) : 11 a = 0}, so every fibre has
      g = gcd(11, m) points;
    * (U, V) is in the image iff 11 b = 3U - V (mod m) is solvable, i.e.
      3U = V (mod g), i.e. U = 4V (mod g) (multiply by 4; 12 = 1 mod 11);
    * a = U - 4b = U (mod 2), since m is even, so chi(x3) = (-1)^U on the
      whole fibre.

    Hence, with chi(-1) = (-1)^(m/2),

        sum = chi(-1) g sum_{v != 0, u = 4v - 1 != 0, log u = 4 log v (mod g)} (-1)^(log u),

    which for g = 1 is chi(-1) (sum_u chi(u) - chi(-1)) = -1.
    """
    log, exp = log_exp_tables(F)
    m = F.q - 1
    g = math.gcd(11, m)
    lv = np.arange(m)
    u = digitwise_add(F, exp[(lv + int(log[4 % F.p])) % m], F.p - 1)  # 4v + (-1)
    lu = log[u]
    hit = (u != 0) & ((lu - 4 * lv) % g == 0)
    return (-1) ** (m // 2) * g * int((1 - 2 * (lu[hit] % 2)).sum())


def _char2_slice_sum(F: FieldDescriptor) -> int:
    """sum_{u != 0} (-1)^Tr(u^11) for q = 2^k, with Tr(g^n) = sum_j g^(n 2^j)."""
    _, exp = log_exp_tables(F)
    m = F.q - 1
    n = np.arange(m)
    trace = np.zeros(m, dtype=np.int64)  # index 0 or 1, i.e. Tr in F_2
    for j in range(F.k):
        trace = digitwise_add(F, trace, exp[n * 2 ** j % m])
    return int(m - 2 * trace[n * 11 % m].sum())


def count_klein_fast(F: FieldDescriptor) -> int:
    """#X(P^4(F_q)) for the Klein cubic by the x1 = 1 slice count."""
    q = F.q
    slice_sum = _char2_slice_sum(F) if F.p == 2 else _odd_slice_sum(F)
    n1 = q ** 3 + q * slice_sum
    affine = (q - 1) * n1 + q * q * (q - 1) + q * (2 * q - 1)
    if (affine - 1) % (q - 1) != 0:
        raise ArithmeticError("affine count is not 1 mod (q-1); counter is inconsistent")
    return (affine - 1) // (q - 1)


# ---------------------------------------------------------------------------
# naive projective oracle


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


# ---------------------------------------------------------------------------
# Weierstrass curves


@dataclass(frozen=True)
class WeierstrassCurve:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    @property
    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def projective_form(self) -> CycPoly:
        """Y^2 Z + a1 XYZ + a3 YZ^2 - X^3 - a2 X^2 Z - a4 XZ^2 - a6 Z^3 in (X, Y, Z)."""
        return CycPoly.make({(0, 2, 1): 1, (1, 1, 1): self.a1, (0, 1, 2): self.a3,
                             (3, 0, 0): -1, (2, 0, 1): -self.a2, (1, 0, 2): -self.a4,
                             (0, 0, 3): -self.a6})


# conductor-121 CM curve housing a_p(f); pinned against the grossencharacter
# rule and the degree-10 factor at p = 3 (hard test failures on disagreement)
CM_CURVE = WeierstrassCurve(0, -1, 1, -7, 10)


def count_weierstrass(E: WeierstrassCurve, F: FieldDescriptor) -> int:
    """#E(F_q) including the point at infinity."""
    if E.discriminant % F.p == 0:
        raise BadReduction(f"curve has bad reduction at {F.p}")
    if F.p == 2:
        return count_hypersurface_naive(E.projective_form(), F)
    q = F.q
    # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6,
    # evaluated by Horner steps on index vectors (constants lie in F_p);
    # y -> 2y + a1 x + a3 is a bijection for odd p, so each x contributes
    # the number of square roots of f(x), counted once over all squares
    b2, b4, b6, _ = E.b_invariants
    xs = np.arange(q, dtype=np.int64)
    f = np.full(q, 4 % F.p, dtype=np.int64)
    for c in (b2, 2 * b4, b6):
        f = digitwise_add(F, log_exp_mul(F, f, xs), c % F.p)
    square_roots = np.bincount(log_exp_mul(F, xs, xs), minlength=q)
    return 1 + int(square_roots[f].sum())


# ---------------------------------------------------------------------------
# Fermat cover of degree 11


def _cover_exponents() -> list[tuple]:
    # x_i -> y_i^4 y_{i+1}^2 y_{i+2}^3 y_{i+3}^8
    base = (4, 2, 3, 8, 0)
    out = []
    for i in range(5):
        e = [0] * 5
        for j, d in enumerate(base):
            e[(i + j) % 5] = d
        out.append(tuple(e))
    return out


def fermat_cover_substitution() -> CycPoly:
    """The Klein form with each x_i replaced by its monomial in y_0..y_4."""
    sub = _cover_exponents()
    terms = {}
    for exps, coeff in klein_form().terms:
        new = tuple(sum(exps[v] * sub[v][j] for v in range(5)) for j in range(5))
        terms[new] = terms.get(new, 0) + coeff
    return CycPoly.make(terms)


def verify_fermat_cover() -> bool:
    """Exact identity S(x(y)) = (prod_i y_i^8) * (sum_i y_i^11)."""
    lhs = fermat_cover_substitution()
    expected = {}
    for i in range(5):
        e = [8] * 5
        e[i] += 11
        expected[tuple(e)] = 1
    return lhs.dict() == expected


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountRecord:
    p: int
    k: int
    count: int
    algorithm: str
    elapsed_s: float

    def __post_init__(self):
        q = self.p ** self.k
        bound = q ** 4 + q ** 3 + q ** 2 + q + 1
        if not 0 <= self.count <= bound:
            raise ArithmeticError("hypersurface count exceeds #P^4(F_q)")


def count_klein(p: int, k: int) -> CountRecord:
    """Count with timing, through the fast counter.  build_field refuses a
    field past the log/exp limit with BudgetExceeded."""
    F = build_field(p, k)
    t0 = time.perf_counter()
    n = count_klein_fast(F)
    dt = time.perf_counter() - t0
    algo = "slice-trace" if p == 2 else "slice-delsarte"
    return CountRecord(p, k, n, algo, dt)
