"""Forward Newton recurrence for the tests: the power sums of the inverse
roots of a degree-10 local factor, read back from its coefficients.  It
inverts `lfunc.power_sums_to_local_factor`, so the tests round-trip the two."""

from kleinzeta.lfunc import H3_DEGREE, LocalFactor


def local_factor_power_sums(L: LocalFactor, m: int = 5) -> list:
    """Forward Newton recurrence: power sums of the inverse roots of L."""
    e = [(-1) ** k * L.coeffs[k] for k in range(H3_DEGREE + 1)]
    t = []
    for k in range(1, m + 1):
        acc = (-1) ** (k - 1) * k * e[k] if k <= H3_DEGREE else 0
        for j in range(1, k):
            if k - j <= H3_DEGREE:
                acc += (-1) ** (k - j - 1) * e[k - j] * t[j - 1]
        t.append(acc)
    return t
