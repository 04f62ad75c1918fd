from fractions import Fraction as F
from itertools import permutations
from math import factorial

import pytest

from hilbwall import hilb, wallx
from hilbwall.exact import Monomial
from hilbwall.hilb import hilb_integral
from hilbwall.wallx import (ch_series, dt_identity_check, euler_series_closed,
                            euler_series_wc, expand_full_crossing,
                            expand_wall_terms)


def mono(exp, coeff):
    return Monomial(coeff, exp)


# --- term expanders ---------------------------------------------------------

def test_wall_terms_counts():
    assert len(expand_wall_terms(2, 0, 1)) == 2
    assert len(expand_wall_terms(3, 0, 2)) == 1
    assert len(expand_wall_terms(2, 1, 1)) == 5


def test_wall_terms_structure():
    terms = expand_wall_terms(3, 0, 2)
    (term,) = terms
    assert term.k == 1 and term.n_prime == 1 and term.blocks == ((),)
    assert term.symmetry_factor == F(1, 1)
    for term in expand_wall_terms(4, 2, 1):
        seen = set(term.retained)
        for block in term.blocks:
            seen |= set(block)
        assert seen == {0, 1}
        assert term.n_prime == 4 - term.k
        assert term.symmetry_factor == F(1, factorial(term.k))


def test_wall_terms_counts_against_formula():
    # sum over k of (k+1)^m, an independent count of the distributions
    for n in range(1, 7):
        for m in range(0, 5):
            for n0 in range(1, n + 1):
                expected = sum((k + 1) ** m for k in range(1, n // n0 + 1))
                assert len(expand_wall_terms(n, m, n0)) == expected


def test_wall_terms_stable_under_relabeling():
    n, m, n0 = 3, 3, 1
    base = {(t.k, t.retained, t.blocks) for t in expand_wall_terms(n, m, n0)}
    for perm in permutations(range(m)):
        relabeled = set()
        for (k, retained, blocks) in base:
            retained2 = tuple(sorted(perm[i] for i in retained))
            blocks2 = tuple(tuple(sorted(perm[i] for i in b)) for b in blocks)
            relabeled.add((k, retained2, blocks2))
        normalized = {(k, tuple(sorted(r)), tuple(tuple(sorted(b)) for b in bs))
                      for (k, r, bs) in base}
        assert relabeled == normalized


def test_wall_spec_validation():
    with pytest.raises(ValueError):
        expand_wall_terms(2, 0, 3)
    with pytest.raises(ValueError):
        expand_wall_terms(2, 0, 0)


def test_full_crossing_compositions():
    terms = expand_full_crossing(3, 0)
    sizes = [tuple(size for size, _ in t.blocks) for t in terms]
    assert sorted(sizes) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(expand_full_crossing(5, 0)) == 16
    for n in range(1, 11):
        assert len(expand_full_crossing(n, 0)) == 2 ** (n - 1)


def test_full_crossing_with_insertion():
    terms = expand_full_crossing(2, 1)
    assert len(terms) == 3
    for t in terms:
        assert sum(size for size, _ in t.blocks) == 2
        assigned = [i for _, ins in t.blocks for i in ins]
        assert assigned == [0]


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


def test_euler_wc_equals_closed():
    for d in (1, 2):
        for c in range(-4, 5):
            assert euler_series_wc(d, c, 14) == euler_series_closed(d, c, 14)


def test_euler_wc_calls_no_series_routine(monkeypatch):
    # checks 5-6 compare the wall-crossing sum with the closed form, so the
    # sum must not reach the power, exp or log routines behind the closed form
    closed = {d: euler_series_closed(d, -3, 20) for d in (1, 2)}

    def forbidden(*args):
        raise AssertionError("wall-crossing side reached a qs_* routine")
    for name in ("qs_pow_int", "qs_exp", "qs_log"):
        monkeypatch.setattr(wallx, name, forbidden)
    for d in (1, 2):
        assert euler_series_wc(d, -3, 20) == closed[d]


def test_euler_validation():
    with pytest.raises(ValueError):
        euler_series_wc(3, 1, 4)
    with pytest.raises(ValueError):
        euler_series_closed(1, 1, -1)


# --- the dimension-three substitution identity ----------------------------------

def test_dt_identity_examples():
    assert dt_identity_check(0, 4)
    assert dt_identity_check(1, 10)
    assert dt_identity_check(-6, 10)


def test_dt_identity_validation():
    with pytest.raises(ValueError):
        dt_identity_check(1, 0)
