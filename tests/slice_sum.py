"""Reference Klein counter for the tests: the x1 = 1 slice count that the
Jacobi-sum kernel of `counting.count_klein` replaced, one walk of all of
F_q for every (p, k), with a separate slice sum for each characteristic.

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
"""

import math

import numpy as np

from kleinzeta.ffield import FieldDescriptor, log_exp_tables
from naive_oracle import digitwise_add


def odd_slice_sum(F: FieldDescriptor) -> int:
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


def char2_slice_sum(F: FieldDescriptor) -> int:
    """sum_{u != 0} (-1)^Tr(u^11) for q = 2^k, with Tr(g^n) = sum_j g^(n 2^j)."""
    _, exp = log_exp_tables(F)
    m = F.q - 1
    n = np.arange(m)
    trace = np.zeros(m, dtype=np.int64)  # index 0 or 1, i.e. Tr in F_2
    for j in range(F.k):
        trace = digitwise_add(F, trace, exp[n * 2 ** j % m])
    return int(m - 2 * trace[n * 11 % m].sum())


def count_klein_slice(F: FieldDescriptor) -> int:
    """#X(P^4(F_q)) for the Klein cubic by the x1 = 1 slice count."""
    q = F.q
    slice_sum = char2_slice_sum(F) if F.p == 2 else odd_slice_sum(F)
    n1 = q ** 3 + q * slice_sum
    affine = (q - 1) * n1 + q * q * (q - 1) + q * (2 * q - 1)
    if (affine - 1) % (q - 1) != 0:
        raise ArithmeticError("affine count is not 1 mod (q-1); counter is inconsistent")
    return (affine - 1) // (q - 1)
