from fractions import Fraction as F

from hypothesis import given, strategies as st

from hilbwall.exact import LaurentPoly, QSeries, qs_exp, qs_log, qs_pow_int

fractions = st.builds(F, st.integers(-40, 40), st.integers(1, 8))
laurents = st.dictionaries(st.integers(-5, 5), fractions, max_size=5).map(
    lambda d: LaurentPoly("t", d))
qseries = st.lists(fractions, min_size=4, max_size=7).map(QSeries)
# invertible series: constant term 1 or a non-unit rational
units = st.tuples(st.sampled_from([F(1), F(2, 3)]),
                  st.lists(fractions, min_size=3, max_size=6)).map(
    lambda t: QSeries([t[0]] + t[1]))


def repeated_product(s, c):
    out = QSeries([F(1)] + [F(0)] * s.order)
    for _ in range(c):
        out = out * s
    return out


@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero("t") == a
    assert a * LaurentPoly.constant(1, "t") == a


@given(qseries, qseries, qseries)
def test_qseries_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(qseries)
def test_qs_exp_log_roundtrip(s):
    zeroed = QSeries([F(0)] + s.coeffs[1:])
    assert qs_log(qs_exp(zeroed)) == zeroed
    normalized = QSeries([F(1)] + s.coeffs[1:])
    assert qs_exp(qs_log(normalized)) == normalized


@given(qseries, st.integers(-4, 4), st.integers(-4, 4))
def test_qs_pow_additivity(s, a, b):
    unit = QSeries([F(1)] + s.coeffs[1:])  # invertible constant term
    assert qs_pow_int(unit, a + b) == qs_pow_int(unit, a) * qs_pow_int(unit, b)


@given(units, st.integers(0, 5))
def test_qs_pow_int_is_the_repeated_product(s, c):
    assert qs_pow_int(s, c) == repeated_product(s, c)


@given(units, st.integers(1, 5))
def test_qs_negative_pow_inverts_the_repeated_product(s, c):
    one = QSeries([F(1)] + [F(0)] * s.order)
    assert qs_pow_int(s, -c) * repeated_product(s, c) == one
