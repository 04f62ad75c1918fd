from fractions import Fraction as F
from math import factorial

import pytest

from hilbwall.exact import (ExactError, Monomial, euler_inverse_series,
                            macmahon_series, qs_exp, qs_log, qs_pow_int)


# --- monomials ------------------------------------------------------------------

def test_lp_zero_pruning_and_predicates():
    # a zero coefficient forces the exponent to 0
    zero = Monomial(F(0), 2)
    assert zero.exp == 0 and zero.terms == {} and zero.is_zero()
    p = Monomial(F(1, 2), 1)
    assert p.terms == {1: F(1, 2)} and not p.is_zero()
    assert Monomial(3, -2).coeff == F(3) and Monomial(3, -2).var == "t"
    with pytest.raises(ExactError):
        Monomial(0.5, 1)


def test_lp_rendering_is_canonical():
    assert str(Monomial(F(1, 2), -1)) == "1/2*t^-1"
    assert str(Monomial(F(2), 0)) == "2"
    assert str(Monomial(F(-3), 3)) == "-3*t^3"
    assert str(Monomial(0, 5)) == "0"
    assert str(Monomial(1, 1)) == "1*t"
    assert str(Monomial(F(1, 6), 1, "u")) == "1/6*u"


def test_monomial_sum_needs_one_degree():
    assert Monomial(1, -2) + Monomial(F(1, 2), -2) == Monomial(F(3, 2), -2)
    assert (Monomial(1, -2) + Monomial(-1, -2)).is_zero()
    # zeros of any degree compare equal and add to anything
    assert Monomial(0, 3) == Monomial(F(0), -4) == Monomial(0, 0)
    assert hash(Monomial(0, 3)) == hash(Monomial(0, 0))
    assert Monomial(0, 3) + Monomial(5, 1) == Monomial(5, 1) + Monomial(0, -7) == Monomial(5, 1)
    with pytest.raises(ExactError):
        Monomial(1, -2) + Monomial(1, -3)
    with pytest.raises(ExactError):
        Monomial(1, 0) + Monomial(1, 0, "u")


# --- q series: the q^n coefficient at index n ----------------------------------

def truncated_product(a, b):
    """Product of two series, known through the shorter order."""
    return [sum(a[i] * b[n - i] for i in range(n + 1))
            for n in range(min(len(a), len(b)))]


def test_qs_log_of_geometric():
    s = qs_log(qs_pow_int([1, -1, 0, 0, 0, 0], -1))
    assert s == [0, 1, F(1, 2), F(1, 3), F(1, 4), F(1, 5)]


def test_qs_pow_int_negative():
    assert qs_pow_int([1, -1, 0, 0, 0], -2) == [1, 2, 3, 4, 5]


def test_qs_exp_of_a_linear_series():
    for a in (F(1), F(-3), F(2, 5)):
        s = qs_exp([0, a] + [0] * 7)
        assert s == [a ** n / factorial(n) for n in range(9)]


def test_qs_exp_log_roundtrip():
    s = [0, 1, F(-1, 3), 0, 0, F(7, 2), 0]
    assert qs_log(qs_exp(s)) == s
    t = [1, F(2, 5), 0, -2, 0, 0, 0]
    assert qs_exp(qs_log(t)) == t


def test_qs_preconditions():
    with pytest.raises(ExactError):
        qs_exp([1, 0, 0, 0])
    with pytest.raises(ExactError):
        qs_log([2, 0, 0, 0])
    for c in (0, 2, -1):
        with pytest.raises(ExactError):
            qs_pow_int([0, 1, 0, 0], c)


# --- partition and plane-partition counting oracles --------------------------

def count_partitions(n, cap=None):
    """Brute-force partition count, independent of the package."""
    if n == 0:
        return 1
    cap = n if cap is None else cap
    return sum(count_partitions(n - p, p) for p in range(min(cap, n), 0, -1))


def plane_partition_rows(n, bound):
    """Count weakly decreasing stacks of rows summing to n, each row below
    ``bound`` pointwise."""
    if n == 0:
        return 1
    total = 0
    def rows_under(remaining, limit_parts):
        # enumerate one row (a partition pointwise below limit_parts)
        out = []
        def rec(i, left, row):
            out.append(tuple(row))
            if i >= len(limit_parts):
                return
            hi = min(limit_parts[i], left, row[-1] if row else left)
            for v in range(hi, 0, -1):
                row.append(v)
                rec(i + 1, left - v, row)
                row.pop()
        rec(0, remaining, [])
        return out
    for row in rows_under(n, bound):
        weight = sum(row)
        if 0 < weight <= n:
            total += plane_partition_rows(n - weight, row)
    return total


def count_plane_partitions(n):
    if n == 0:
        return 1
    return plane_partition_rows(n, (n,) * n)


def test_euler_inverse_series_counts_partitions():
    s = euler_inverse_series(8)
    assert s[:5] == [1, 1, 2, 3, 5] and len(s) == 9
    assert s[8] == count_partitions(8)
    assert count_partitions(8) == 22


def test_macmahon_series_counts_plane_partitions():
    s = macmahon_series(5)
    assert s[:4] == [1, 1, 3, 6]
    assert s == [count_plane_partitions(n) for n in range(6)]


def test_macmahon_times_inverse_factors_is_one():
    order = 8
    product = macmahon_series(order)
    for m in range(1, order + 1):
        factor = [1] + [0] * order
        factor[m] = -1
        product = truncated_product(product, qs_pow_int(factor, m))
    assert product == [1] + [0] * order


def test_exp_of_log_macmahon():
    # exp(log M(-q)) recovers M(-q); coefficients from the brute-force
    # plane-partition count
    order = 4
    m_neg = [(-1) ** n * m for n, m in enumerate(macmahon_series(order))]
    expected = [(-1) ** n * count_plane_partitions(n) for n in range(order + 1)]
    assert qs_exp(qs_log(m_neg)) == expected
