"""Dense univariate polynomials on little-endian coefficient lists.

The package's one polynomial layer.  Integer products serve the pinned
reference factor, hecke's CM factor at chi(p) = 1 (a fifth power) and cyclo's
Z[z]/(z^n - 1); products over Q(zeta_5) serve only the spinor factors, since
hecke reads the CM factor in closed integer form.  Pseudo-division over Z
serves the Sturm chain of the purity test and, reduced mod p by the caller,
the field build in ffield.  A leaf: it imports nothing from the package, so
ffield and cyclo can build on it.
"""

from __future__ import annotations


def trim(a):
    """a without its trailing zero coefficients."""
    i = len(a)
    while i and a[i - 1] == 0:
        i -= 1
    return a[:i]


def mul(a, b) -> list:
    """The product of two coefficient lists over int, Fraction or
    CyclotomicNumber coefficients.  A zero int or Fraction in a is skipped;
    an output coefficient no term reaches stays the int 0."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            j = i
            for y in b:
                out[j] += x * y
                j += 1
    return out


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
