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

A Weierstrass curve is counted over a prime field F_p in plain integers:
#E(F_p) = 1 + sum_x r(f(x)) for odd p, r(c) the number of square roots of
c, and its four affine candidates directly at p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
import fractions  # noqa: F401  unused: it keeps fractions loading before numpy,
                  # as perfbench's setup_s reads the import order (ROADMAP 1b)

import numpy as np

from .ffield import FieldDescriptor, build_field, field_order, log_exp_tables
from .gdcohom import CycPoly, klein_form
from .poly import at_zeta, cyclic_mul

H3_CLASS = (1, 5, 3, 4, 9)           # the class a of H^3; the other nine are t a


class BadReduction(ValueError):
    pass


# ---------------------------------------------------------------------------
# Klein counter: Jacobi sums over F_(p^f)


def _jacobi_eigenvalue(F: FieldDescriptor) -> list:
    """lambda = -J(1, 5) J(6, 3) J(9, 4) over F = F_(p^f), as 11 coefficients
    in Z[z]/(z^11 - 1), which maps onto Z[zeta_11]; see count_klein."""
    log, exp = log_exp_tables(F)
    p, m = F.p, F.q - 1
    # u = x^e runs over F^* but 1 (e = 1 .. m - 1), and chi(u) = zeta^e.
    # y is the index of -u = x^(e + log(-1)) (-1 has index p - 1); adding 1
    # changes digit 0 only (at p = 2 it is y ^ 1), which gives 1 - u
    y = exp[(np.arange(1, m) + int(log[p - 1])) % m]
    ly = log[(y + 1) % p - y % p + y]
    del y
    # every J reads (e, log(1 - u)) mod 11 alone: count the 121 pairs once
    pairs = np.bincount(np.arange(1, m) % 11 * 11 + ly % 11, minlength=121).tolist()
    lam, s = [-1] + [0] * 10, 0
    for a, b in zip(H3_CLASS, H3_CLASS[1:4]):
        s += a
        j = [0] * 11
        for i, n in enumerate(pairs):
            j[(s * (i // 11) + b * (i % 11)) % 11] += n
        lam = cyclic_mul(lam, j)
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

    Conventions.  Let f = ord_11(p), x the root of `ffield.build_field`'s
    primitive modulus, which generates F_(p^f)^*, chi(x^e) = zeta_11^e, and
    J(a, b) = sum_(u != 0, 1) chi^a(u) chi^b(1 - u).  With a = (1, 5, 3, 4, 9)
    and its partial sums 1, 6, 9, Frob_(p^f) acts on the class a by

        lambda = -J(1, 5) J(6, 3) J(9, 4)

    and on t a by sigma_t(lambda), sigma_t: zeta_11 -> zeta_11^t (Weil).
    Another primitive modulus, whose root is x^s (s prime to p^f - 1),
    gives chi^s' in place of chi, s s' = 1 mod 11, and so sigma_s'(lambda)
    in place of lambda: lambda depends on the modulus only up to sigma_t,
    and the count, a trace, not at all.
    By Hasse-Davenport the eigenvalue over F_(p^(f r)) is lambda^r, so for
    q = p^k with f | k

        #X(F_q) = 1 + q + q^2 + q^3 - Tr_(Q(zeta_11)/Q)(lambda^(k/f)).

    The three J read one bincount of the 121 residue pairs
    (log u, log(1 - u)) mod 11.  Self-check: lambda sigma_(-1)(lambda) =
    |lambda|^2 must equal p^(3f) exactly, or ArithmeticError.

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


# conductor-121 CM curve housing a_p(f); pinned against the grossencharacter
# rule and the degree-10 factor at p = 3 (hard test failures on disagreement)
CM_CURVE = WeierstrassCurve(0, -1, 1, -7, 10)


def count_weierstrass(E: WeierstrassCurve, p: int) -> int:
    """#E(F_p) for a prime p, including the point at infinity; ffield.field_order
    refuses p as it does for the Klein counter."""
    field_order(p, 1)
    if E.discriminant % p == 0:
        raise BadReduction(f"curve has bad reduction at {p}")
    if p == 2:  # completing the square needs 2 invertible: test the points of F_2^2
        return 1 + sum((y * y + E.a1 * x * y + E.a3 * y - x ** 3 - E.a2 * x * x - E.a4 * x
                        - E.a6) % 2 == 0 for x in (0, 1) for y in (0, 1))
    # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6;
    # y -> 2y + a1 x + a3 is a bijection for odd p, so each x contributes
    # the number of square roots of the right-hand side
    b2, b4, b6, _ = E.b_invariants
    square_roots = [0] * p
    for y in range(p):
        square_roots[y * y % p] += 1
    return 1 + sum(square_roots[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p))


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
