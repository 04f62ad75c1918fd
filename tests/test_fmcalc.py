import pytest

from hilbwall.fmcalc import reduce_pure_tilde, tn_integral


# --- tree-locus integrals -------------------------------------------------------

def test_tn_integral_base_values():
    assert tn_integral(2, 1, 0) == -1
    assert tn_integral(2, 0, 1) == 1


def test_tn_integral_examples():
    assert tn_integral(3, 3, 0) == 1
    assert tn_integral(4, 2, 3) == -2
    assert type(tn_integral(4, 2, 3)) is int
    assert tn_integral(3, 1, 1) == 0
    assert tn_integral(3, 0, 3) == 1
    assert tn_integral(5, 0, 0) == 0  # below the dimension 2N - 3 of T_5


def test_tn_integral_validation():
    with pytest.raises(ValueError):
        tn_integral(1, 0, 0)
    with pytest.raises(ValueError):
        tn_integral(3, -1, 4)


def test_tn_integral_rejects_non_integers():
    # 0.5 + 0.5 misses the dimension 2N - 3 and would otherwise read 0
    for args in [(4, 0.5, 0.5), (4, 2.0, 3.0), (4.0, 2, 3)]:
        with pytest.raises(TypeError):
            tn_integral(*args)


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
    with pytest.raises(TypeError):
        reduce_pure_tilde(3, 2.0)  # not a list of floats


# --- pure tilde closure ----------------------------------------------------------

def test_reduce_pure_tilde_small():
    assert reduce_pure_tilde(0, 2) == [1]
    assert reduce_pure_tilde(2, 2) == [0, -1, 1]      # c2*(c2 - 1)
    assert reduce_pure_tilde(3, 1) == [0, -2, 3, -1]  # -c(c-1)(c-2)
