"""Reference Q(zeta_n) number type for the tests: exact arithmetic in
Q(zeta_n) for prime n, the separate number type kleinzeta used before its
cyclotomic values became coefficient lists in Z[z]/(z^n - 1) (poly.cyclic_mul
and poly.at_zeta).  The lists are checked against it, so it keeps its own fold
of z^(n+i) onto z^i.

Elements are stored over the power basis 1, z, ..., z^(n-2), reduced by
1 + z + ... + z^(n-1) = 0, as integer numerators over one denominator > 0 in
lowest terms.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from kleinzeta.ffield import is_prime
from kleinzeta.linalg import EXACT_SCALARS, common_denominator
from kleinzeta.poly import mul


@dataclass(frozen=True)
class CyclotomicNumber:
    n: int
    num: tuple  # n-1 integer numerators over 1, z, ..., z^(n-2)
    den: int = 1

    def __post_init__(self):
        if self.den == 0:
            raise ZeroDivisionError("cyclotomic denominator is zero")
        g = math.gcd(self.den, *self.num) if self.den > 0 else -math.gcd(self.den, *self.num)
        if g != 1:
            object.__setattr__(self, "num", tuple(c // g for c in self.num))
            object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def of(n: int, coords) -> "CyclotomicNumber":
        """sum_i coords[i] z^i from n-1 ints or Fractions."""
        _check_conductor(n)
        if len(coords) != n - 1:
            raise ValueError(f"conductor {n} takes {n - 1} coordinates")
        return CyclotomicNumber(n, *common_denominator(coords))

    @staticmethod
    def zero(n: int) -> "CyclotomicNumber":
        _check_conductor(n)
        return CyclotomicNumber(n, (0,) * (n - 1))

    @staticmethod
    def one(n: int) -> "CyclotomicNumber":
        return CyclotomicNumber.rational(n, 1)

    @staticmethod
    def rational(n: int, value) -> "CyclotomicNumber":
        return CyclotomicNumber.of(n, (value,) + (0,) * (n - 2))

    @staticmethod
    def zeta_pow(n: int, j: int) -> "CyclotomicNumber":
        """z^j, reduced to the power basis."""
        _check_conductor(n)
        j %= n  # z^(n-1) = -(1 + z + ... + z^(n-2))
        num = (-1,) * (n - 1) if j == n - 1 else (0,) * j + (1,) + (0,) * (n - 2 - j)
        return CyclotomicNumber(n, num)

    def _lift(self, other):
        """other as an element of this field, or None for a foreign type."""
        if isinstance(other, EXACT_SCALARS):
            other = CyclotomicNumber(self.n, (other.numerator,) + (0,) * (self.n - 2),
                                     other.denominator)
        elif not isinstance(other, CyclotomicNumber):
            return None
        if self.n != other.n:
            raise ValueError("mixed cyclotomic conductors")
        return other

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        d, e = self.den, other.den
        return CyclotomicNumber(self.n, tuple(a * e + b * d for a, b in zip(self.num, other.num)),
                                d * e)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.n, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, EXACT_SCALARS):  # a rational scalar scales the numerators
            return CyclotomicNumber(self.n, tuple(a * other.numerator for a in self.num),
                                    self.den * other.denominator)
        other = self._lift(other)
        if other is None:
            return NotImplemented
        full = _cyclic_mul(self.num + (0,), other.num + (0,))
        top = full[-1]  # z^(n-1) = -(1 + z + ... + z^(n-2))
        return CyclotomicNumber(self.n, tuple(c - top for c in full[:-1]), self.den * other.den)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def coords(self) -> tuple:
        """The coordinates over 1, z, ..., z^(n-2) as Fractions (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __repr__(self):
        z = f"*z{self.n}"
        parts = [f"{c}" if i == 0 else f"{c}{z}^{i}" if i > 1 else f"{c}{z}"
                 for i, c in enumerate(self.coords) if c]
        return " + ".join(parts) if parts else "0"


def _cyclic_mul(a, b) -> list:
    """Product in Z[z]/(z^n - 1) of two length-n coefficient sequences:
    the product in Z[z], with z^(n+i) folded onto z^i."""
    full = mul(a, b)
    return [x + y for x, y in zip(full, full[len(a):] + [0])]


def _check_conductor(n: int):
    if n < 3 or not is_prime(n):
        raise ValueError(f"conductor {n} must be an odd prime")
