import hashlib
import random
from fractions import Fraction as F
from math import factorial

import pytest

from hilbwall import hilb
from hilbwall.exact import Monomial
from hilbwall.hilb import (LocalizationError, ch_value, conjugate,
                           enumerate_partitions, fixed_point_data,
                           hilb_integral, hilb_integral_via_limit,
                           tangent_weights, taut_weights)
from hilbwall.ifun import nonpolar_ifunction
from hilbwall.verify import _sum_bounded_partitions


def mono(exp, coeff):
    return Monomial(coeff, exp)


def pentagonal_partition_count(n, cache={0: 1}):
    """Euler's pentagonal-number recurrence, the counting oracle."""
    if n in cache:
        return cache[n]
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * pentagonal_partition_count(n - g1)
        if g2 <= n:
            total += sign * pentagonal_partition_count(n - g2)
        k += 1
    cache[n] = total
    return total


# --- partitions ---------------------------------------------------------------

def test_enumerate_partitions_basics():
    assert enumerate_partitions(0) == [()]
    assert len(enumerate_partitions(4)) == 5
    assert enumerate_partitions(4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_partition_counts_match_pentagonal_recurrence():
    for n in range(0, 13):
        assert len(enumerate_partitions(n)) == pentagonal_partition_count(n)
    assert len(enumerate_partitions(8)) == 22


def test_conjugate_is_involutive():
    assert conjugate(()) == ()
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


# --- box data -----------------------------------------------------------------

def test_arm_leg_examples():
    # each box with arm a and leg l gives the hook pair (a+1, -l), (-a, l+1),
    # in row-major box order
    assert tangent_weights((1,)) == [(1, 0), (0, 1)]
    assert tangent_weights((2,))[:2] == [(2, 0), (-1, 1)]
    # the box (0,0) of (3,1) has arm 2 and leg 1
    assert tangent_weights((3, 1))[:2] == [(3, -1), (-2, 2)]


def test_tangent_weights_examples():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            tw = tangent_weights(lam)
            assert len(tw) == 2 * n
            assert (0, 0) not in tw


def test_tangent_weights_transpose_symmetry():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            swapped = sorted((b, a) for (a, b) in tangent_weights(lam))
            assert swapped == sorted(tangent_weights(conjugate(lam)))


def test_taut_weights_examples():
    assert taut_weights((1,)) == [(0, 0)]
    assert sorted(taut_weights((2,))) == [(0, 0), (1, 0)]
    assert sorted(taut_weights((2, 1))) == [(0, 0), (0, 1), (1, 0)]
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            weights = taut_weights(lam)
            assert len(weights) == n
            assert weights.count((0, 0)) == 1


# --- Chern character values ----------------------------------------------------

def test_ch_value_examples():
    assert ch_value((1,), 2) == {}
    assert ch_value((2,), 2) == {(2, 0): F(1, 2)}
    # dual weights: the fiber is spanned by functions, so ch_1 of the row
    # partition (2) is -t1 (see the hilb module docstring)
    assert ch_value((2,), 1) == {(1, 0): -1}
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            assert ch_value(lam, 0) == {(0, 0): n}


# --- localization anchors ------------------------------------------------------

def test_empty_bracket_normalization():
    assert hilb_integral(3) == mono(-6, F(1, 6))
    for n in range(1, 8):
        assert hilb_integral(n) == mono(-2 * n, F(1, factorial(n)))


def test_ch1_bracket_vanishes():
    for n in range(1, 8):
        assert hilb_integral(n, [1]).is_zero()
    assert hilb_integral(5, [1]).is_zero()


def test_ch2_ch3_closed_forms():
    assert hilb_integral(4, [2]) == mono(-6, F(-1, 8))
    for n in range(2, 8):
        assert hilb_integral(n, [2]) == mono(-2 * (n - 1), F(-1, 4 * factorial(n - 2)))
        assert hilb_integral(n, [3]) == mono(-(2 * n - 3), F(1, 6 * factorial(n - 2)))


def test_higher_ch_anchor_values():
    assert hilb_integral(2, [4]) == mono(0, F(-1, 16))
    assert hilb_integral(3, [4]) == mono(-2, F(-5, 144))
    assert hilb_integral(2, [5]) == mono(1, F(1, 60))
    assert hilb_integral(3, [6]) == mono(0, F(77, 4320))


def test_homogeneity_degree():
    rng = random.Random(7)
    for _ in range(25):
        ks = [rng.randrange(0, 8) for _ in range(rng.randrange(0, 4))]
        for n in range(1, 6):
            value = hilb_integral(n, ks)
            if not value.is_zero():
                assert value.exp == sum(ks) - 2 * n


def test_agrees_with_rational_limit_oracle():
    for n, ks in [(1, []), (2, [2]), (3, []), (3, [4]), (4, [2, 2]), (4, [3])]:
        assert hilb_integral_via_limit(n, ks) == hilb_integral(n, ks)


def test_limit_oracle_on_every_small_bracket():
    brackets = [(n, ks) for n in range(1, 5) for ks in _sum_bounded_partitions(6)]
    assert len(brackets) == 120
    for n, ks in brackets:
        assert hilb_integral(n, ks) == hilb_integral_via_limit(n, ks), (n, ks)


@pytest.fixture
def hilb_caches():
    """Every hilb lru_cache, cleared before and after the test, so that a
    kernel table built under a patch never reaches another test."""
    caches = [v for v in vars(hilb).values() if callable(getattr(v, "cache_info", None))]
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()


def test_regularity_check_fires_on_a_missing_fixed_point(monkeypatch, hilb_caches):
    # without the fixed point (3,1) the eps poles of the others do not cancel
    full = hilb.enumerate_partitions
    monkeypatch.setattr(hilb, "enumerate_partitions",
                        lambda n: [parts for parts in full(n) if parts != (3, 1)])
    with pytest.raises(LocalizationError):
        hilb_integral(4)
    with pytest.raises(LocalizationError):
        hilb_integral(4, [2])


def test_bracket_grid_digest():
    # sha256 of 114 brackets as printed by the Fraction-summing kernel that
    # preceded the shared-denominator sum; guards n <= 20, where the
    # via-limit oracle is too slow to compare against
    shapes = [(), (2,), (4, 0), (3, 3), (2, 2, 2), (6,), (8, 1), (5, 4, 0, 0)]
    grid = [(n, ks) for n in range(1, 15) for ks in shapes] + [(18, (4,)), (20, (4,))]
    text = "\n".join(str(hilb_integral(n, ks)) for n, ks in grid)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "35995e25cc33b1a68dae88e6ca787e87aca37e6d4bcc71f029798791956f7486")


def test_bracket_memo_runs_the_kernel_once():
    hilb._bracket.cache_clear()
    nonpolar_ifunction(5, [4, 2])
    value = hilb_integral(5, [2, 4])
    info = hilb._bracket.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert info.maxsize == hilb.BRACKET_CACHE_SIZE
    assert value == hilb_integral_via_limit(5, [2, 4])


def test_multi_insertion_values_against_limit_oracle():
    assert hilb_integral(2, [2, 2]) == hilb_integral_via_limit(2, [2, 2])
    assert hilb_integral(3, [2, 2, 2]) == hilb_integral_via_limit(3, [2, 2, 2])


def test_input_validation():
    with pytest.raises(ValueError):
        hilb_integral(0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        nonpolar_ifunction(0, [2])  # the check is hilb_integral's
    with pytest.raises(ValueError):
        hilb_integral(2, [-1])
    with pytest.raises(ValueError):
        ch_value((2,), -1)


def test_cold_bracket_caches_only_eps_lists(hilb_caches):
    hilb_integral(8, [2, 3])
    # one table with a row per partition of 8, one ch table per k, one bracket
    assert len(hilb._fixed_points(8)[0]) == 22
    assert sum(cache.cache_info().currsize for cache in hilb_caches) == 1 + 2 + 1
    # a second bracket at n = 8 adds no table: the partitions are enumerated once
    hilb_integral(8, [2])
    assert sum(cache.cache_info().currsize for cache in hilb_caches) == 1 + 2 + 2
    lam = (3, 1)
    data = fixed_point_data(lam)
    assert (data.tangent, data.taut) == (tuple(tangent_weights(lam)), tuple(taut_weights(lam)))


def test_inverse_euler_inverts_the_tangent_euler_class():
    points = [lam for n in range(1, 11) for lam in enumerate_partitions(n)]
    assert len(points) == 138
    for lam in points:
        # D, the non-pole factors (a+b) + b*eps through eps^P, and the pole slopes
        tangent = tangent_weights(lam)
        poles = sum(1 for a, b in tangent if a + b == 0)
        den, slopes = [1] + [0] * poles, 1
        for a, b in tangent:
            if a + b == 0:
                slopes *= b
            else:
                den = [(a + b) * x + b * y for x, y in zip(den, [0] + den)]
        inv, local = hilb._inverse_euler(lam)
        d0 = den[0]
        assert hilb._mul_trunc(list(inv), den) == [d0 ** (poles + 1)] + [0] * poles, lam
        assert local == slopes * d0 ** (poles + 1), lam


def test_insertions_are_a_multiset():
    assert hilb_integral(3, [3, 2]) == hilb_integral(3, [2, 3])
    assert hilb_integral(4, [2, 0, 4]) == hilb_integral(4, [4, 2, 0])


def test_limit_oracle_at_n5():
    assert hilb_integral(5, [2, 2]) == hilb_integral_via_limit(5, [2, 2])
    assert hilb_integral(5, [6]) == hilb_integral_via_limit(5, [6])
    assert hilb_integral(5, [4]) == hilb_integral_via_limit(5, [4])
    assert hilb_integral(5, [2, 3]) == hilb_integral_via_limit(5, [2, 3])
    assert hilb_integral(5, [6]) == mono(-4, F(1, 120))
