from fractions import Fraction as F
from math import comb, factorial

import pytest

from hilbwall.fmcalc import reduce_pure_tilde, tn_integral


# --- tree-locus integrals -------------------------------------------------------

def test_tn_integral_base_values():
    assert tn_integral(2, 1, 0) == -1
    assert tn_integral(2, 0, 1) == 1


def test_tn_integral_examples():
    assert tn_integral(3, 3, 0) == 1
    assert tn_integral(4, 2, 3) == -2
    assert tn_integral(3, 1, 1) == 0
    assert tn_integral(3, 0, 3) == 1
    assert tn_integral(5, 0, 0) == 0  # below the dimension 2N - 3 of T_5


def test_tn_integral_degree_selection():
    for n in range(2, 11):
        for a in range(0, 26):
            for b in range(0, 26 - a):
                if tn_integral(n, a, b) != 0:
                    assert a + b == 2 * n - 3


def test_tn_integral_square_removal_recursion():
    # removing psi1^2 flips the sign, removing psi_inf^2 does not
    for n in range(3, 11):
        for a in range(0, 2 * n - 2):
            b = 2 * n - 3 - a
            expected = F(0)
            if a >= 2:
                expected -= tn_integral(n - 1, a - 2, b)
            if b >= 2:
                expected += tn_integral(n - 1, a, b - 2)
            assert tn_integral(n, a, b) == expected


def test_tn_integral_validation():
    with pytest.raises(ValueError):
        tn_integral(1, 0, 0)
    with pytest.raises(ValueError):
        tn_integral(3, -1, 4)


# --- dilaton steps ---------------------------------------------------------------

def test_dilaton_step_examples():
    # coefficients in ascending powers of c_d
    assert reduce_pure_tilde(1, 2) == [0, 1]
    # the factors -c1 and -(c1 - 1)
    assert reduce_pure_tilde(2, 1) == [0, -1, 1]


def test_reduce_pure_tilde_validation():
    for d in (0, 4):
        with pytest.raises(ValueError):
            reduce_pure_tilde(1, d)
    with pytest.raises(ValueError):
        reduce_pure_tilde(-1, 2)


# --- pure tilde closure ----------------------------------------------------------

def test_reduce_pure_tilde_small():
    assert reduce_pure_tilde(0, 2) == [1]
    assert reduce_pure_tilde(2, 2) == [0, -1, 1]      # c2*(c2 - 1)
    assert reduce_pure_tilde(3, 1) == [0, -2, 3, -1]  # -c(c-1)(c-2)


def test_reduce_pure_tilde_matches_integer_binomials():
    # evaluate at integer points: the falling factorial is k! * C(x, k)
    for d in (1, 2, 3):
        for k in range(9):
            value = reduce_pure_tilde(k, d)
            for x in range(0, 15):
                at_x = sum(c * x ** i for i, c in enumerate(value))
                assert at_x == (-1) ** (d * k) * factorial(k) * comb(x, k)

