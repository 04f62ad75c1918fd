from fractions import Fraction as F
from math import factorial

import pytest

from hilbwall import hilb, wallx
from hilbwall.exact import ExactError, Monomial
from hilbwall.hilb import hilb_integral
from hilbwall.wallx import (ch_series, euler_series_closed, euler_series_wc,
                            expand_wall_terms)


def mono(exp, coeff):
    return Monomial(coeff, exp)


# --- term expanders ---------------------------------------------------------
# check 12 of the verification suite proves each expander's term set

def test_wall_spec_validation():
    with pytest.raises(ValueError):
        expand_wall_terms(2, 0, 3)
    with pytest.raises(ValueError):
        expand_wall_terms(2, 0, 0)


# --- the ch_k series pipeline -------------------------------------------------

def test_ch_series_matches_closed_form_k2():
    s = ch_series(2, 6)
    assert s[0].is_zero()
    assert s[1].is_zero()
    for n in range(2, 7):
        assert s[n] == mono(-2 * (n - 1), F(-1, 4 * factorial(n - 2)))


def test_ch_series_spot_values():
    assert ch_series(3, 2)[2] == mono(-1, F(1, 6))
    s4 = ch_series(4, 5)
    assert s4[2] == mono(0, F(-1, 16))
    assert s4[3] == mono(-2, F(-5, 144))
    # q^5: 2/(16*3!) - 5/(144*2!) = 1/48 - 5/288 = 1/288, all at t^-6
    assert s4[5] == mono(-6, F(1, 288))


def test_ch_series_k0_counts_points():
    # the ch_0 insertion is the constant n, so the q^n coefficient is
    # n/(n! t^2n) = 1/((n-1)! t^2n)
    s = ch_series(0, 5)
    for n in range(1, 6):
        assert s[n] == mono(-2 * n, F(1, factorial(n - 1)))


def test_ch_series_agrees_with_localization():
    for k in range(0, 7):
        s = ch_series(k, 6)
        for n in range(1, 7):
            assert s[n] == hilb_integral(n, [k]), (k, n)


def test_ch_series_skips_seeds_beyond_the_order():
    # a seed at n > q_order cannot land in the series, so only n = 1, 2 run
    hilb._bracket.cache_clear()
    short = ch_series(20, 2)
    assert hilb._bracket.cache_info().misses == 2
    assert short == ch_series(20, 12)[:3]


@pytest.mark.parametrize("shift", [-2, 1])
def test_ch_series_refuses_a_seed_of_the_wrong_degree(monkeypatch, shift):
    # the ch_6 seed at n = 3 is C * u^2; at any other degree its stratum
    # terms would land on the wrong power of t
    right = wallx.nonpolar_ifunction

    def shifted(n, ks):
        seed = right(n, ks)
        return Monomial(seed.coeff, seed.exp + shift, "u") if n == 3 else seed
    monkeypatch.setattr(wallx, "nonpolar_ifunction", shifted)
    with pytest.raises(ExactError, match=f"ch_6 seed at n=3 has degree {2 + shift}, not 2"):
        ch_series(6, 10)


def test_ch_series_validation():
    with pytest.raises(ValueError):
        ch_series(-1, 4)
    with pytest.raises(ValueError):
        ch_series(2, 0)


# --- Euler-characteristic series ------------------------------------------------

def test_euler_wc_examples():
    assert euler_series_wc(1, 2, 4) == [1, 2, 3, 4, 5]
    assert euler_series_wc(2, 0, 6) == [1, 0, 0, 0, 0, 0, 0]
    assert euler_series_wc(2, 24, 1) == [1, 24]
    # the wall-crossing sum stays in integers, binomials included
    assert all(type(x) is int for x in euler_series_wc(2, -5, 30))


def test_euler_closed_examples():
    assert euler_series_closed(1, -2, 2) == [1, -2, 1]
    assert euler_series_closed(2, 1, 6) == [1, 1, 2, 3, 5, 7, 11]
    assert euler_series_closed(1, 0, 4) == [1, 0, 0, 0, 0]


def test_euler_wc_reads_the_product_only_at_c_1(monkeypatch):
    # checks 5-7 compare the wall-crossing sum with the closed form, so the
    # sum may read the product only for its base F, at c = 1
    closed = {d: euler_series_closed(d, -3, 20) for d in (1, 2, 3)}

    def base_only(d, c, order):
        assert c == 1, f"wall-crossing side read the closed form at c={c}"
        return euler_series_closed(d, c, order)
    monkeypatch.setattr(wallx, "euler_series_closed", base_only)
    for d in (1, 2, 3):
        assert euler_series_wc(d, -3, 20) == closed[d]


def test_euler_validation():
    with pytest.raises(ValueError):
        euler_series_wc(4, 1, 4)
    with pytest.raises(ValueError):
        euler_series_closed(1, 1, -1)
    with pytest.raises(ValueError):
        euler_series_wc(1, 1, -1)
    for series in (euler_series_wc, euler_series_closed):
        with pytest.raises(TypeError):
            series(2.0, 3, 5)  # not a list of floats


def test_euler_wc_rejects_a_non_integer_power_as_the_closed_form_does():
    # an exact calculator returns no floats: the sum alone would give 2.0 at q^1
    for series in (euler_series_wc, euler_series_closed):
        with pytest.raises(ExactError, match="series power must be an integer"):
            series(1, 2.5, 4)


# --- the dimension-three substitution identity ----------------------------------

def test_dt_identity_examples():
    # the series dt-check compares: wall-crossing sum against M(-q)^c
    for c, order in ((0, 4), (1, 10), (-6, 10)):
        assert euler_series_wc(3, c, order) == euler_series_closed(3, c, order)
