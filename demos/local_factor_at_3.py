#!/usr/bin/env python3
"""The flagship identity: the degree-10 local factor at p = 3, two ways.

Route one counts points of the Klein cubic over F_3, ..., F_243 and runs
the Lefschetz / Newton / functional-equation pipeline.  Route two never
counts anything: it takes the product of the five character twists of
the CM quadratic, which is 1 - (alpha^5 + beta^5) x^5 + 3^15 x^10 in
integers, because chi(3) != 1.  Both must land on the same integer
polynomial, which factors as (1 + 3x + 27x^2) times an irreducible
degree-8 cofactor.

The full tower takes about a millisecond: k = 5 is one Jacobi-sum pass
over F_243, and k = 1..4 need no field walk, since 11 divides 3^k - 1
only for k = 5.
"""

import time

from kleinzeta.counting import count_klein
from kleinzeta.hecke import h3_local_factor_product
from kleinzeta.lfunc import counts_to_power_sums, power_sums_to_local_factor, weil_bound_check
from kleinzeta.reference import FACTOR3_DEGREE8, FACTOR3_QUADRATIC, reference_degree10_at_3

print("counting the tower over F_{3^k} ...")
counts = []
for k in range(1, 6):
    t0 = time.time()
    n = count_klein(3, k).count
    counts.append(n)
    print(f"  #X(F_{3 ** k:>3}) = {n:>12}   [{time.time() - t0:.1f}s]")

ps = counts_to_power_sums(counts, 3)
print("\nFrobenius power sums on H^3:", list(ps.values))

L_counting = power_sums_to_local_factor(ps)
print("\ncounting route:", list(L_counting.coeffs))

L_product = h3_local_factor_product(3)
print("product route: ", list(L_product.coeffs))

target = reference_degree10_at_3()
print("\npinned factorization:")
print("  quadratic :", list(FACTOR3_QUADRATIC))
print("  degree 8  :", list(FACTOR3_DEGREE8))

assert L_counting.coeffs == L_product.coeffs == target.coeffs
assert weil_bound_check(L_counting)
print("\nboth routes agree with the pinned factorization; purity holds.")
