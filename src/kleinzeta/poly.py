"""Dense univariate polynomials on little-endian coefficient lists.

The package's one polynomial layer, and its one cyclotomic arithmetic.
Integer products serve the pinned reference factor and hecke's CM factor at
chi(p) = 1 (a fifth power).  Coefficient lists in Z[z]/(z^n - 1) carry
every cyclotomic value: the Jacobi sums in Z[zeta_11] (multiplied by
`cyclic_mul`), the Fourier eigenvectors of the rotation and the additive
character sums.
Z[z]/(z^n - 1) maps onto Z[zeta_n] for prime n with kernel spanned by
1 + z + ... + z^(n-1), so two lists are equal at zeta_n exactly when their
`at_zeta` coordinates are.  Pseudo-division over Z serves the Sturm chain of
the purity test and, reduced mod p by the caller, the field build in
ffield.  A leaf: it imports nothing from the package, so ffield and the
rest can build on it.
"""

from __future__ import annotations


def trim(a):
    """a without its trailing zero coefficients."""
    i = len(a)
    while i and a[i - 1] == 0:
        i -= 1
    return a[:i]


def mul(a, b) -> list:
    """The product of two coefficient lists over a commutative ring (int or
    Fraction in the package).  A zero coefficient in a is skipped; an output
    coefficient no term reaches stays the int 0."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            j = i
            for y in b:
                out[j] += x * y
                j += 1
    return out


def cyclic_mul(a, b) -> list:
    """Product in Z[z]/(z^n - 1) of two length-n coefficient sequences:
    the product in Z[z], with z^(n+i) folded onto z^i."""
    full = mul(a, b)
    return [x + y for x, y in zip(full, full[len(a):] + [0])]


def at_zeta(a) -> list:
    """The n - 1 coordinates over 1, z, ..., z^(n-2) of a length-n list of
    Z[z]/(z^n - 1) read at zeta_n, n prime: z^(n-1) = -(1 + ... + z^(n-2))."""
    return [c - a[-1] for c in a[:-1]]


def pdivmod(a, b) -> tuple:
    """(Q, R), trimmed, with s a = Q b + R and deg R < deg b, over Z.

    s = |lc b|^(deg a - deg b + 1) > 0, so s = 1 when b is monic; when
    deg a < deg b, s = 1, Q = [] and R = a.  a and b must be trimmed, b nonzero.
    Each of the deg a - deg b + 1 steps scales the remainder and the partial
    quotient by |lc b|, then clears the remainder's top coefficient f with
    f x^shift b.
    """
    m, scale, sign = len(b) - 1, abs(b[-1]), (1 if b[-1] > 0 else -1)
    r, q = list(a), []  # q collects Q from the top down
    for top in range(len(r) - 1, m - 1, -1):
        f = sign * r[top]
        if scale != 1:
            r, q = [scale * c for c in r], [scale * c for c in q]
        q.append(f)
        if f:
            i = top - m
            for c in b:
                r[i] -= f * c
                i += 1
    return q[::-1], trim(r[:m])
