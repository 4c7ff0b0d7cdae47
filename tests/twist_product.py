"""Reference CM side for the tests: the order-5 character, the twisted
quadratics, their degree-10 product and the character twist sum, formed
literally in Q(zeta_5), the way `hecke` computed them before it read them in
integers (the product and the sum in closed form)."""

from fractions import Fraction

from cyclotomic import CyclotomicNumber
from kleinzeta.hecke import ap_f, chi_dlog
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


def chi(n: int, i: int = 1) -> CyclotomicNumber:
    """chi^i(n) for the order-5 character of conductor 11 with chi(2) = zeta_5."""
    d = chi_dlog(n)
    if d is None:
        return CyclotomicNumber.zero(5)
    return CyclotomicNumber.zeta_pow(5, i * d)


def _twisted_quadratic(p: int, i: int, trace_coeff: int):
    """1 - trace_coeff * chi^i(p) * T + chi^(2i)(p) * p^3 * T^2."""
    return [CyclotomicNumber.one(5), chi(p, i) * -trace_coeff, chi(p, 2 * i) * p ** 3]


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
        prod = mul(prod, _twisted_quadratic(p, i, a * p))
    return LocalFactor(p, tuple(integer_value(c) for c in prod))
