from itertools import islice

import pytest

from hilbwall.fmcalc import pure_tilde_closures, tn_integral


# --- tree-locus integrals -------------------------------------------------------

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

def closure(k, d):
    """The k-th closure that pure_tilde_closures(d) yields."""
    return next(islice(pure_tilde_closures(d), k, None))


def test_dilaton_step_examples():
    # coefficients in ascending powers of c_d
    assert closure(1, 2) == [0, 1]
    # the factors -c1 and -(c1 - 1)
    assert closure(2, 1) == [0, -1, 1]


def test_pure_tilde_closures_validation():
    # a generator checks d at its first step
    for d in (0, 4):
        with pytest.raises(ValueError):
            next(pure_tilde_closures(d))
    # no k below 0: the first closure is the empty bracket
    assert next(pure_tilde_closures(2)) == [1]
    with pytest.raises(TypeError):
        next(pure_tilde_closures(2.0))  # not a list of floats


# --- pure tilde closure ----------------------------------------------------------

def test_pure_tilde_closures_small():
    assert closure(0, 2) == [1]
    assert closure(2, 2) == [0, -1, 1]      # c2*(c2 - 1)
    assert closure(3, 1) == [0, -2, 3, -1]  # -c(c-1)(c-2)
    # one factor a step: each closure is the one before times (-1)^d (c_d - k)
    assert list(islice(pure_tilde_closures(3), 4)) == [
        [1], [0, -1], [0, -1, 1], [0, -2, 3, -1]]
