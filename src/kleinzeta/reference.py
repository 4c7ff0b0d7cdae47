"""Frozen reference values the verification targets are pinned against."""

from __future__ import annotations

from .lfunc import LocalFactor
from .poly import mul

# The degree-10 factor at p = 3 factors as a CM quadratic times an
# irreducible degree-8 cofactor; both are fixed targets of the build.
FACTOR3_QUADRATIC = (1, 3, 27)
FACTOR3_DEGREE8 = (1, -3, -18, 135, 81, 3645, -13122, -59049, 531441)


def reference_degree10_at_3() -> LocalFactor:
    """Exact expansion of the two pinned factors at p = 3."""
    return LocalFactor(3, tuple(mul(FACTOR3_QUADRATIC, FACTOR3_DEGREE8)))
