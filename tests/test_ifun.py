from fractions import Fraction as F

from hilbwall.exact import Monomial
from hilbwall.hilb import hilb_integral
from hilbwall.ifun import nonpolar_ifunction
from hilbwall.wallx import ch_series


def test_nonpolar_examples():
    assert nonpolar_ifunction(1, []) == Monomial(F(1), 0, "u")
    assert nonpolar_ifunction(1, [1]).is_zero()
    assert nonpolar_ifunction(2, [2]) == Monomial(F(-1, 4), 0, "u")
    assert nonpolar_ifunction(3, [2]).is_zero()


def test_nonpolar_exponent_law():
    for n, ks in [(1, []), (2, [2]), (2, [4]), (3, [4]), (2, [2, 3]), (3, [3, 3])]:
        m = nonpolar_ifunction(n, ks)
        if not m.is_zero():
            assert m.exp == sum(ks) - 2 * n + 2


def test_vanishing_threshold_small():
    for n in range(1, 5):
        for total in range(0, 9):
            for ks in _partitions_of(total):
                m = nonpolar_ifunction(n, ks)
                expect_zero = total < 2 * n - 2 or hilb_integral(n, ks).is_zero()
                assert m.is_zero() == expect_zero, (n, ks)


def _partitions_of(total, cap=None):
    if total == 0:
        yield ()
        return
    cap = total if cap is None else cap
    for p in range(min(cap, total), 0, -1):
        for rest in _partitions_of(total - p, p):
            yield (p,) + rest


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

