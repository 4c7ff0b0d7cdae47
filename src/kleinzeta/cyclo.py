"""Exact arithmetic in Q(zeta_n) for prime n.

Elements are stored over the power basis 1, z, ..., z^(n-2) with rational
coordinates, reduced by 1 + z + ... + z^(n-1) = 0.  Conductor 5 carries the
order-5 Dirichlet character values and the eigenvalue computations; larger
prime conductors carry additive-character sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ffield import is_prime


@dataclass(frozen=True)
class CyclotomicNumber:
    n: int
    coords: tuple  # length n-1, Fractions over 1, z, ..., z^(n-2)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "CyclotomicNumber":
        _check_conductor(n)
        return CyclotomicNumber(n, (Fraction(0),) * (n - 1))

    @staticmethod
    def one(n: int) -> "CyclotomicNumber":
        return CyclotomicNumber.rational(n, 1)

    @staticmethod
    def rational(n: int, value) -> "CyclotomicNumber":
        _check_conductor(n)
        coords = [Fraction(0)] * (n - 1)
        coords[0] = Fraction(value)
        return CyclotomicNumber(n, tuple(coords))

    @staticmethod
    def zeta_pow(n: int, j: int) -> "CyclotomicNumber":
        """z^j, reduced to the power basis."""
        _check_conductor(n)
        j %= n
        coords = [Fraction(0)] * (n - 1)
        if j < n - 1:
            coords[j] = Fraction(1)
        else:  # z^(n-1) = -(1 + z + ... + z^(n-2))
            coords = [Fraction(-1)] * (n - 1)
        return CyclotomicNumber(n, tuple(coords))

    # -- ring structure ------------------------------------------------------

    def _match(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.rational(self.n, other)
        if self.n != other.n:
            raise ValueError("mixed cyclotomic conductors")
        return other

    def __add__(self, other):
        other = self._match(other)
        return CyclotomicNumber(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.n, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._match(other)
        return CyclotomicNumber(self.n, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return self._match(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.n, tuple(a * f for a in self.coords))
        other = self._match(other)
        n = self.n
        conv = [Fraction(0)] * (2 * n - 3)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[: n - 1]) + [Fraction(0)] * max(0, (n - 1) - len(conv))
        for e in range(n - 1, len(conv)):
            c = conv[e]
            if not c:
                continue
            r = e % n
            if r < n - 1:
                out[r] += c
            else:
                for i in range(n - 1):
                    out[i] -= c
        return CyclotomicNumber(n, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1 / self as the product of its other Galois conjugates over its norm.

        With sigma_a: z -> z^a (a = 1..n-1) the norm N(x) = prod_a sigma_a(x)
        is rational, so 1/x = prod_(a >= 2) sigma_a(x) / N(x).  The work is
        done on integer numerators in Z[z]/(z^n - 1), which maps onto Q(zeta_n);
        a rational element is inverted directly.
        """
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero in Q(zeta_n)")
        r = self.as_rational()
        if r is not None:
            return CyclotomicNumber.rational(self.n, 1 / r)
        n = self.n
        den = math.lcm(*(c.denominator for c in self.coords))
        x = [c.numerator * (den // c.denominator) for c in self.coords] + [0]
        prod = [1] + [0] * (n - 1)
        for a in range(2, n):
            conj = [0] * n
            for i, c in enumerate(x):
                conj[a * i % n] = c
            prod = _cyclic_mul(prod, conj)
        full = _cyclic_mul(x, prod)
        # the norm is full[0] + k (1 + z + ... + z^(n-1)) with k = full[n - 1]
        norm = full[0] - full[n - 1]
        top = prod[n - 1]
        return CyclotomicNumber(n, tuple(Fraction((c - top) * den, norm) for c in prod[:-1]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * self._match(other).inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return self._match(other) * self.inverse()

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def as_rational(self):
        """The element as a Fraction if it lies in Q, else None."""
        if any(c != 0 for c in self.coords[1:]):
            return None
        return self.coords[0]

    def __repr__(self):
        n = self.n
        parts = []
        for i, c in enumerate(self.coords):
            if c:
                if i == 0:
                    parts.append(f"{c}")
                else:
                    parts.append(f"{c}*z{n}^{i}" if i > 1 else f"{c}*z{n}")
        return " + ".join(parts) if parts else "0"


def _cyclic_mul(a: list, b: list) -> list:
    """Product in Z[z]/(z^n - 1) of two length-n coefficient lists."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return out


def _check_conductor(n: int):
    if n < 3 or not is_prime(n):
        raise ValueError(f"conductor {n} must be an odd prime")
