"""Exact desk-scale verification of the arithmetic of Klein's cubic threefold.

Subpackages:
  ffield     exact F_{p^k} arithmetic and O(q) log/exp index vectors
  counting   point counts (slice Klein counter, naive oracle, curves)
  lfunc      degree-10 local Frobenius polynomials on the middle cohomology
  cyclo      exact Q(zeta_n) arithmetic for prime n
  hecke      Q(sqrt(-11)) splitting, coefficients, character twists
  gdcohom    pole-order reduction of the middle de Rham cohomology
  thetasupp  p-adic Schwartz-support scans and local cancellation checks
  cli        verification harness with JSON reports
"""

from .cache import VERSION as __version__  # noqa: F401
