from decimal import Decimal
from fractions import Fraction as F

import pytest

from hilbwall import wallx
from hilbwall.exact import ExactError, Monomial
from hilbwall.verify import _plane_partition_counts
from hilbwall.wallx import euler_series_closed, euler_series_wc


# --- monomials ------------------------------------------------------------------

def test_monomial_zero_pruning_and_predicates():
    # a zero coefficient forces the exponent to 0
    zero = Monomial(F(0), 2)
    assert zero.exp == 0 and zero.terms == {} and zero.is_zero()
    p = Monomial(F(1, 2), 1)
    assert p.terms == {1: F(1, 2)} and not p.is_zero()
    assert Monomial(3, -2).coeff == F(3) and Monomial(3, -2).var == "t"
    with pytest.raises(ExactError):
        Monomial(0.5, 1)


def test_monomial_constructor_contract():
    # an exact Fraction takes the fast path; every other scalar keeps the
    # contract: bool and int become a Fraction, a Fraction subclass is kept
    # as given, and anything inexact or not a number is refused
    class Half(F):
        pass

    for value, coeff in [(True, F(1)), (-7, F(-7)), (F(2, 3), F(2, 3))]:
        m = Monomial(value, 4, "u")
        assert type(m) is Monomial and m == (coeff, 4, "u")
        assert type(m.coeff) is F
    half = Half(1, 2)
    assert Monomial(half, 1).coeff is half
    for value in (0.5, 1.0, Decimal("0.5"), "1/2"):
        with pytest.raises(ExactError):
            Monomial(value, 1)
    # a zero coefficient forces exp = 0 in either variable, whatever its type
    for var in ("t", "u"):
        for zero in (0, False, F(0), Half(0)):
            assert Monomial(zero, 5, var) == (F(0), 0, var)
            assert Monomial(zero, -3, var).exp == 0


def test_monomial_rendering_is_canonical():
    assert str(Monomial(F(1, 2), -1)) == "1/2*t^-1"
    assert str(Monomial(F(2), 0)) == "2"
    assert str(Monomial(F(-3), 3)) == "-3*t^3"
    assert str(Monomial(0, 5)) == "0"
    assert str(Monomial(1, 1)) == "1*t"
    assert str(Monomial(F(1, 6), 1, "u")) == "1/6*u"


def test_monomials_do_not_add():
    # a namedtuple's + would concatenate two monomials into a 6-tuple
    for a, b in [(Monomial(1, -2), Monomial(F(1, 2), -2)), (Monomial(0, 3), Monomial(5, 1)),
                 (Monomial(1, 0), Monomial(1, 0, "u"))]:
        with pytest.raises(TypeError):
            a + b
    with pytest.raises(TypeError):
        Monomial(1, -2) + (F(1), -2, "t")
    # zeros of any degree compare equal
    assert Monomial(0, 3) == Monomial(F(0), -4) == Monomial(0, 0)
    assert hash(Monomial(0, 3)) == hash(Monomial(0, 0))


# --- q series: the q^n coefficient at index n ----------------------------------

def truncated_product(a, b):
    """Product of two series, known through the shorter order."""
    return [sum(a[i] * b[n - i] for i in range(n + 1))
            for n in range(min(len(a), len(b)))]


def test_closed_form_division_is_exact(monkeypatch):
    # s_4 + 1 is no integer series' log-derivative: the q^4 coefficient
    # would be 21/4
    log_derivative = wallx._log_derivative

    def off_at_q4(d, order):
        s = log_derivative(d, order)
        s[4] += 1
        return s
    monkeypatch.setattr(wallx, "_log_derivative", off_at_q4)
    with pytest.raises(ExactError):
        euler_series_closed(2, 1, 8)


# --- partition and plane-partition counting oracles --------------------------

def count_partitions(n, cap=None):
    """Brute-force partition count, independent of the package."""
    if n == 0:
        return 1
    cap = n if cap is None else cap
    return sum(count_partitions(n - p, p) for p in range(min(cap, n), 0, -1))


def test_partition_product_counts_partitions():
    s = euler_series_closed(2, 1, 8)
    assert s[:5] == [1, 1, 2, 3, 5] and len(s) == 9
    assert s[8] == count_partitions(8)
    assert count_partitions(8) == 22


def test_macmahon_times_inverse_factors_is_one():
    # M(q) times prod_m (1 - q^m)^m, each factor a repeated product
    order = 30
    product = [(-1) ** n * m for n, m in enumerate(euler_series_closed(3, 1, order))]
    for m in range(1, order + 1):
        factor = [1] + [0] * order
        factor[m] = -1
        for _ in range(m):
            product = truncated_product(product, factor)
    assert product == [1] + [0] * order


def test_euler_wc_dimension_3_is_the_signed_plane_partition_count():
    # at c = 1 the dimension-3 wall-crossing series is its base M(-q);
    # coefficients from the brute-force plane-partition count
    expected = [(-1) ** n * pp for n, pp in enumerate(_plane_partition_counts(4))]
    assert euler_series_wc(3, 1, 4) == expected
