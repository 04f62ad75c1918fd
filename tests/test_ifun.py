from fractions import Fraction as F

from hilbwall.exact import LaurentPoly
from hilbwall.hilb import hilb_integral
from hilbwall.ifun import UMonomial, nonpolar_ifunction
from hilbwall.wallx import ch_series


def test_nonpolar_examples():
    assert nonpolar_ifunction(1, []) == UMonomial(F(1), 0)
    assert nonpolar_ifunction(1, [1]).is_zero()
    assert nonpolar_ifunction(2, [2]) == UMonomial(F(-1, 4), 0)
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
    assert nonpolar_ifunction(2, [2]) == UMonomial(F(-1, 4), 0)
    assert ch_series(2, 2)[2] == LaurentPoly.monomial("t", -2, F(-1, 4))
    assert nonpolar_ifunction(2, [4]) == UMonomial(F(-1, 16), 2)
    assert ch_series(4, 2)[2] == LaurentPoly.constant(F(-1, 16), "t")


def test_restriction_to_tree_stratum():
    # u -> -psi1 on T_2 lands at q^(n+1) with int_{T_2} psi1^a psi_inf^(1-a)
    assert ch_series(2, 3)[3] == LaurentPoly.monomial("t", -4, F(-1, 4))
    # odd exponents pick up the sign of u -> -psi1: (-1) * int_{T_2} psi1 = +1
    assert nonpolar_ifunction(2, [3]) == UMonomial(F(1, 6), 1)
    assert ch_series(3, 3)[3] == LaurentPoly.monomial("t", -3, F(1, 6))


def test_point_restriction_tautology():
    # for 2n <= k + 2 the point-stratum value over t^2 returns the bracket
    for n, k in [(1, 0), (1, 2), (2, 2), (2, 4), (3, 4), (3, 6), (4, 6)]:
        m = nonpolar_ifunction(n, [k] if k else [])
        value = m.as_laurent("t")  # u -> t
        recovered = value.div_monomial(LaurentPoly.monomial("t", 2))
        assert recovered == hilb_integral(n, [k] if k else [])


def test_vanishing_threshold_larger_brackets():
    # one-directional spot checks beyond the exhaustive range: any bracket
    # with total ch degree below 2n - 2 has no nonpolar part
    for n, ks in [(7, (2, 3)), (7, (5, 5, 1)), (8, (4, 4, 4)), (8, (13,))]:
        assert sum(ks) < 2 * n - 2
        assert nonpolar_ifunction(n, ks).is_zero()

