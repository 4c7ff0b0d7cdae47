"""Exact desk-scale verification of the arithmetic of Klein's cubic threefold.

Modules:
  poly       dense univariate polynomials over Z, Q and F_p, and Z[z]/(z^n - 1)
  ffield     F_{p^k} construction and its O(q) log/exp index vectors
  counting   point counts (Jacobi-sum Klein counter, curves over F_p)
  cache      opt-in append-only JSONL cache of point counts, read once per run
  lfunc      degree-10 local Frobenius polynomials on the middle cohomology
  hecke      Q(sqrt(-11)) splitting, coefficients, character twists
  linalg     fraction-free sparse row echelon forms and ranks
  gdcohom    pole-order reduction of the middle de Rham cohomology
  thetasupp  p-adic Schwartz-support scans and local cancellation checks
  reference  the pinned factorization of the degree-10 local factor at p = 3
  cli        verification harness with JSON reports
"""

from .cache import VERSION as __version__  # noqa: F401
