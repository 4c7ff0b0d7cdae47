import random

import pytest

from kleinzeta.lfunc import (InconsistentCounts, LocalFactor, PowerSums, counts_to_power_sums,
                             local_factor_power_sums, power_sums_to_local_factor,
                             weil_bound_check)
from kleinzeta.reference import reference_degree10_at_3

TARGET3 = reference_degree10_at_3()


def test_reference_expansion():
    assert TARGET3.coeffs == (1, 0, 0, 0, 0, 7533, 0, 0, 0, 0, 3 ** 15)


def test_counts_to_power_sums_examples():
    assert counts_to_power_sums([40], 3).values == (0,)
    p = 7
    assert counts_to_power_sums([1 + p + p * p + p ** 3], p).values == (0,)
    # the p = 23 count forced by the trace identity
    assert counts_to_power_sums([13755], 23).values == (-1035,)


def test_counts_to_power_sums_rejects_bad_prime():
    with pytest.raises(ValueError):
        counts_to_power_sums([100], 11)


def test_power_sums_weil_bound():
    with pytest.raises(InconsistentCounts):
        PowerSums(3, (1000,))


def test_all_zero_power_sums_give_sparse_factor():
    L = power_sums_to_local_factor(PowerSums(5, (0, 0, 0, 0, 0)))
    expected = (1,) + (0,) * 9 + (5 ** 15,)
    assert L.coeffs == expected
    assert weil_bound_check(L)


def test_flagship_power_sums_reproduce_target():
    L = power_sums_to_local_factor(PowerSums(3, (0, 0, 0, 0, -37665)))
    assert L.coeffs == TARGET3.coeffs


def test_round_trip_on_target():
    t = local_factor_power_sums(TARGET3, 5)
    assert t == [0, 0, 0, 0, -37665]
    assert power_sums_to_local_factor(PowerSums(3, tuple(t))).coeffs == TARGET3.coeffs
    counts = [1 + 3 ** k + 3 ** (2 * k) + 3 ** (3 * k) - tk for k, tk in enumerate(t, start=1)]
    assert counts[0] == 40
    assert power_sums_to_local_factor(counts_to_power_sums(counts, 3)).coeffs == TARGET3.coeffs


def test_round_trip_on_random_symmetric_factors():
    rng = random.Random(17)
    p = 5
    for _ in range(25):
        # random half, mirrored by the functional equation; p_k derived by
        # forward Newton, then reconstructed, also through the count route
        c = [1] + [rng.randint(-6, 6) for _ in range(5)]
        full = c + [p ** (3 * (5 - j)) * c[j] for j in range(4, -1, -1)]
        L = LocalFactor(p, tuple(full))
        t = local_factor_power_sums(L, 5)
        back = power_sums_to_local_factor(PowerSums(p, tuple(t)))
        assert back.coeffs == L.coeffs
        counts = [1 + p ** k + p ** (2 * k) + p ** (3 * k) - tk for k, tk in enumerate(t, start=1)]
        again = power_sums_to_local_factor(counts_to_power_sums(counts, p))
        assert again.coeffs == L.coeffs


def test_functional_equation_enforced():
    bad = list(TARGET3.coeffs)
    bad[9] = 1
    with pytest.raises(ValueError):
        LocalFactor(3, tuple(bad))
    with pytest.raises(ValueError):
        LocalFactor(3, tuple(list(TARGET3.coeffs)[:10]))
    wrong_c0 = (2,) + TARGET3.coeffs[1:]
    with pytest.raises(ValueError):
        LocalFactor(3, wrong_c0)


def test_newton_exactness_error():
    # t_1 = 0, t_2 = 1 forces e_2 = -1/2
    with pytest.raises(InconsistentCounts):
        power_sums_to_local_factor(PowerSums(3, (0, 1, 0, 0, 0)))


def test_weil_bound_check_detects_corruption():
    assert weil_bound_check(TARGET3)
    bumped = list(TARGET3.coeffs)
    bumped[1] += 1
    bumped[9] = 3 ** 12 * bumped[1]
    assert not weil_bound_check(LocalFactor(3, tuple(bumped)))

