from fractions import Fraction as F

import pytest

from hilbwall import hilb
from hilbwall.exact import Monomial
from hilbwall.hilb import hilb_integral
from hilbwall.ifun import nonpolar_ifunction
from hilbwall.wallx import ch_series


def test_nonpolar_examples():
    assert nonpolar_ifunction(1, []) == Monomial(F(1), 0, "u")
    assert nonpolar_ifunction(1, [1]).is_zero()
    assert nonpolar_ifunction(2, [2]) == Monomial(F(-1, 4), 0, "u")
    assert nonpolar_ifunction(3, [2]).is_zero()


# ch_series restricts each seed C * u^a to the fixed strata; with a small
# q-order one seed's restrictions can be read off one coefficient at a time

def test_restriction_to_point_stratum():
    # u -> t, divided by the normal weight t^2, lands at q^n
    assert nonpolar_ifunction(2, [2]) == Monomial(F(-1, 4), 0, "u")
    assert ch_series(2, 2)[2] == Monomial(F(-1, 4), -2)
    assert nonpolar_ifunction(2, [4]) == Monomial(F(-1, 16), 2, "u")
    assert ch_series(4, 2)[2] == Monomial(F(-1, 16), 0)


def test_restriction_to_tree_stratum():
    # u -> -psi1 on T_2 lands at q^(n+1) with int_{T_2} psi1^a psi_inf^(1-a)
    assert ch_series(2, 3)[3] == Monomial(F(-1, 4), -4)
    # odd exponents pick up the sign of u -> -psi1: (-1) * int_{T_2} psi1 = +1
    assert nonpolar_ifunction(2, [3]) == Monomial(F(1, 6), 1, "u")
    assert ch_series(3, 3)[3] == Monomial(F(1, 6), -3)


def test_point_restriction_tautology():
    # for 2n <= k + 2 the point-stratum value over t^2 returns the bracket
    for n, k in [(1, 0), (1, 2), (2, 2), (2, 4), (3, 4), (3, 6), (4, 6)]:
        m = nonpolar_ifunction(n, [k] if k else [])
        recovered = Monomial(m.coeff, m.exp - 2)  # u -> t, over t^2
        assert recovered == hilb_integral(n, [k] if k else [])


def test_vanishing_threshold_larger_brackets():
    # one-directional spot checks beyond the exhaustive range: any bracket
    # with total ch degree below 2n - 2 has no nonpolar part
    for n, ks in [(7, (2, 3)), (7, (5, 5, 1)), (8, (4, 4, 4)), (8, (13,))]:
        assert sum(ks) < 2 * n - 2
        assert nonpolar_ifunction(n, ks).is_zero()


def test_below_the_threshold_no_bracket_is_computed():
    hilb._bracket.cache_clear()
    for n, ks in [(5, [4, 2]), (12, [3]), (8, (4, 4, 4)), (2, [0, 1])]:
        assert nonpolar_ifunction(n, ks) == Monomial(0, 0, "u")
    assert hilb._bracket.cache_info().misses == 0


def test_below_the_threshold_arguments_are_checked_as_hilb_integral_checks_them():
    for n, ks, error in [(2, [-1], ValueError), (-1, [-5], ValueError), (3.0, [2], TypeError),
                         (4, [1.5], TypeError)]:
        with pytest.raises(error) as got:
            nonpolar_ifunction(n, ks)
        with pytest.raises(error) as want:
            hilb_integral(n, ks)
        assert str(got.value) == str(want.value)
    # a string fails the threshold's sum before any check
    with pytest.raises(TypeError):
        nonpolar_ifunction(4, ["1"])
    # the indices are read once, on either side of the threshold
    assert nonpolar_ifunction(5, iter([4, 2])).is_zero()
    assert nonpolar_ifunction(2, iter([2])) == Monomial(F(-1, 4), 0, "u")
