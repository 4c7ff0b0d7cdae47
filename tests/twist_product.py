"""Reference CM side for the tests: the degree-10 product of the five twisted
quadratics and the character twist sum, formed literally in Q(zeta_5), the
way `hecke` computed them before it read both in closed integer form."""

from fractions import Fraction

from kleinzeta.cyclo import CyclotomicNumber
from kleinzeta.hecke import _twisted_quadratic, ap_f, chi
from kleinzeta.lfunc import BAD_PRIME, LocalFactor
from kleinzeta.poly import mul


def rational_value(c: CyclotomicNumber):
    """c as a Fraction if it lies in Q, else None."""
    return None if any(c.num[1:]) else Fraction(c.num[0], c.den)


def integer_value(c: CyclotomicNumber) -> int:
    """c as an int; ArithmeticError unless it lies in Z."""
    r = rational_value(c)
    if r is None or r.denominator != 1:
        raise ArithmeticError(f"{c!r} does not lie in Z")
    return int(r)


def twist_sum(p: int, k: int = 1) -> int:
    """sum_{i=0..4} chi^(ik)(p), added up in Q(zeta_5)."""
    total = CyclotomicNumber.zero(5)
    for i in range(5):
        total = total + chi(p, (i * k) % 5)
    return integer_value(total)


def twist_product(p: int) -> LocalFactor:
    """prod_i (1 - a_p chi^i(p) p x + chi^(2i)(p) p^3 x^2), multiplied out
    in Q(zeta_5)."""
    if p == BAD_PRIME:
        raise ValueError("p = 11 is the bad prime")
    a = ap_f(p)
    prod = [CyclotomicNumber.one(5)]
    for i in range(5):
        prod = mul(prod, _twisted_quadratic(p, i, a * p, 3))
    return LocalFactor(p, tuple(integer_value(c) for c in prod))
