#!/usr/bin/env python3
"""Counts against the CM trace prediction, prime by prime.

At a good prime the count of the Klein cubic differs from the point count
of P^3 exactly by the trace of Frobenius on the middle cohomology, and
that trace is 5 p a_p when p = 1 mod 11 and zero otherwise.  The sweep
makes the dichotomy visible: only 23, 67, 89 (below 100) move.
"""

from kleinzeta.counting import count_klein
from kleinzeta.hecke import ap_f, primes_up_to, split_type, trace_prediction

BOUND = 100

print(f"{'p':>4} {'split':>9} {'a_p':>5} {'t_1 pred':>9} {'#X(F_p)':>10} {'P^3 part':>10} note")
for p in primes_up_to(BOUND):
    if p == 11:
        print(f"{p:>4} {'ramified':>9}     -         -          -          -  (bad prime, skipped)")
        continue
    n = count_klein(p, 1).count
    even = 1 + p + p * p + p ** 3
    t1 = trace_prediction(p)
    assert n == even - t1
    note = "moved by 5*p*a_p" if t1 else ""
    print(f"{p:>4} {split_type(p):>9} {ap_f(p):>5} {t1:>9} {n:>10} {even:>10}  {note}")

print("\nevery good prime below", BOUND, "matches the prediction exactly.")
