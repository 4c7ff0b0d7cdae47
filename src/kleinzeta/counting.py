"""Point counting for the Klein cubic threefold and Weierstrass curves.

The Klein cubic X : x0^2 x1 + x1^2 x2 + x2^2 x3 + x3^2 x4 + x4^2 x0 = 0 has
#X(F_q) = 1 + q + q^2 + q^3 - Tr(Frob_q | H^3).  The monomial map
x_i = y_i^4 y_(i+1)^2 y_(i+2)^3 y_(i+3)^8 (`_cover_exponents`) takes the
Fermat threefold sum y_i^11 = 0 onto X, and H^3(X) is the part of its H^3
that the deck group fixes: the ten classes a = t (1, 5, 3, 4, 9), t in
F_11^*.  Weil (Numbers of solutions of equations in finite fields, 1949)
gives their Frobenius eigenvalues as products of Jacobi sums of an
order-11 character, and the ten are Galois conjugates in Z[zeta_11], so
one eigenvalue, from one walk of F_(p^f) with f = ord_11(p), gives the
count at every power q = p^k (`count_klein`).  When 11 does not
divide q - 1 there is no order-11 character on F_q^*, H^3 is invisible and
#X(F_q) = 1 + q + q^2 + q^3 with no field built.

The naive projective oracle evaluates an integer-coefficient `gdcohom.CycPoly`
on all of P^(n-1)(F_q).  It shares no equation with the Jacobi kernel, and
over a prime field no table either (its products are residue products); at
p = 2 it also counts the Weierstrass curves.  For odd p a curve's count is
#E(F_q) = 1 + sum_x r(f(x)), r(c) the number of square roots of c, which
reads no discrete log.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ffield import (BudgetExceeded, FieldDescriptor, build_field, digitwise_add, field_order,
                     log_exp_mul, log_exp_tables)
from .gdcohom import CycPoly, klein_form
from .poly import at_zeta, cyclic_mul

NAIVE_POINT_BUDGET = 3_000_000       # max projective points for the oracle
H3_CLASS = (1, 5, 3, 4, 9)           # the class a of H^3; the other nine are t a


class BadReduction(ValueError):
    pass


# ---------------------------------------------------------------------------
# Klein counter: Jacobi sums over F_(p^f)


def _jacobi_eigenvalue(F: FieldDescriptor) -> list:
    """lambda = -J(1, 5) J(6, 3) J(9, 4) over F = F_(p^f), as 11 coefficients
    in Z[z]/(z^11 - 1), which maps onto Z[zeta_11]; see count_klein."""
    log, exp = log_exp_tables(F)
    m = F.q - 1
    e = np.arange(1, m)  # x = g^e runs over F^* but 1, and chi(x) = zeta^e
    # 1 - x = (-x) + 1 with -x = g^(e + log(-1)); -1 has index p - 1
    ly = log[digitwise_add(F, exp[(e + int(log[F.p - 1])) % m], 1)] % 11
    lam, s = [-1] + [0] * 10, 0
    for a, b in zip(H3_CLASS, H3_CLASS[1:4]):
        s += a
        lam = cyclic_mul(lam, np.bincount((s * e + b * ly) % 11, minlength=11).tolist())
    norm = cyclic_mul(lam, lam[:1] + lam[:0:-1])  # lambda sigma_(-1)(lambda)
    if at_zeta(norm) != [F.p ** (3 * F.k)] + [0] * 9:
        raise ArithmeticError("Jacobi eigenvalue is not pure of weight 3; counter is inconsistent")
    return lam


@dataclass(frozen=True)
class CountRecord:
    p: int
    k: int
    count: int
    algorithm: str

    def __post_init__(self):
        q = self.p ** self.k
        bound = q ** 4 + q ** 3 + q ** 2 + q + 1
        if not 0 <= self.count <= bound:
            raise ArithmeticError("hypersurface count exceeds #P^4(F_q)")


def count_klein(p: int, k: int) -> CountRecord:
    """#X(P^4(F_q)), q = p^k, for the Klein cubic from one Frobenius
    eigenvalue on H^3.  ffield.field_order refuses (p, k) as
    build_field does; the only field built is F_(p^f), and only when 11
    divides q - 1.

    Conventions.  Let f = ord_11(p), g the generator of F_(p^f)^* of
    `ffield.log_exp_tables`, chi(g^e) = zeta_11^e, and
    J(a, b) = sum_(x != 0, 1) chi^a(x) chi^b(1 - x).  With a = (1, 5, 3, 4, 9)
    and its partial sums 1, 6, 9, Frob_(p^f) acts on the class a by

        lambda = -J(1, 5) J(6, 3) J(9, 4)

    and on t a by sigma_t(lambda), sigma_t: zeta_11 -> zeta_11^t (Weil).
    By Hasse-Davenport the eigenvalue over F_(p^(f r)) is lambda^r, so for
    q = p^k with f | k

        #X(F_q) = 1 + q + q^2 + q^3 - Tr_(Q(zeta_11)/Q)(lambda^(k/f)).

    Each J is one bincount of (a log x + b log(1 - x)) mod 11.  Self-check:
    lambda sigma_(-1)(lambda) = |lambda|^2 must equal p^(3f) exactly, or
    ArithmeticError.

    When 11 does not divide q - 1 (so whenever f does not divide k, and at
    p = 11) the count is 1 + q + q^2 + q^3 and no field is built.  Proof,
    on the x1 = 1 slice, with no use of smoothness: every fibre x1 = c != 0
    of the affine cone is a copy of the slice (N1 points) and the fibre
    x1 = 0 has q^2 (q - 1) + q (2q - 1), so
    #X = ((q - 1) N1 + q^2 (q - 1) + q (2q - 1) - 1)/(q - 1), which is
    1 + q + q^2 + q^3 when N1 = q^3 - q.  On the slice the equation is
    quadratic in x0 with a discriminant quadratic in x2, which gives
    (Lidl-Niederreiter, Finite Fields, Thm 5.48; Artin-Schreier for q = 2^k)

        odd q:   N1 = q^3 + q sum_(x3 != 0) chi_2(-x3) R(x3),
                 R(x3) = #{x4 : x3 x4^4 - 4 x3^3 x4 + 1 = 0},
        q = 2^k: N1 = q^3 + q sum_(u != 0) (-1)^Tr(u^11),

    chi_2 the quadratic character.  For q = 2^k, u -> u^11 permutes F_q^*,
    so the sum is sum_(u != 0) (-1)^Tr(u) = -1.  For odd q, u = x3 x4^4,
    v = x3^3 x4 takes the curve to the line u = 4v - 1 (x4 = 0 is never a
    root); on logs mod m = q - 1 it is the exponent matrix [[1, 4], [3, 1]]
    of determinant -11, prime to m, so a bijection of tori, and
    log x3 = log u - 4 log x4 = log u (mod 2).  So chi_2(x3) = chi_2(u), and
    the sum is chi_2(-1) sum_(u != 0, -1) chi_2(u) = -chi_2(-1)^2 = -1.
    """
    q = field_order(p, k)
    n = 1 + q + q * q + q ** 3
    if (q - 1) % 11 == 0:
        f = next(f for f in (1, 2, 5, 10) if (p ** f - 1) % 11 == 0)
        lam = _jacobi_eigenvalue(build_field(p, f))
        power = lam
        for _ in range(k // f - 1):
            power = cyclic_mul(power, lam)
        n -= 11 * power[0] - sum(power)  # Tr z^0 = 10, Tr z^j = -1
    return CountRecord(p, k, n, "jacobi-weil")


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
