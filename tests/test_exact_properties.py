from fractions import Fraction as F

from hypothesis import given, strategies as st

from hilbwall.exact import qs_exp, qs_log, qs_pow_int

fractions = st.builds(F, st.integers(-40, 40), st.integers(1, 8))
# a q-series is a list, the q^n coefficient at index n
qseries = st.lists(fractions, min_size=4, max_size=7)
# invertible series: constant term 1 or a non-unit rational
units = st.tuples(st.sampled_from([F(1), F(2, 3)]),
                  st.lists(fractions, min_size=3, max_size=6)).map(
    lambda t: [t[0]] + t[1])


def truncated_product(a, b):
    """Product of two series, known through the shorter order."""
    return [sum(a[i] * b[n - i] for i in range(n + 1))
            for n in range(min(len(a), len(b)))]


def repeated_product(s, c):
    out = [F(1)] + [F(0)] * (len(s) - 1)
    for _ in range(c):
        out = truncated_product(out, s)
    return out


@given(qseries)
def test_qs_exp_log_roundtrip(s):
    zeroed = [F(0)] + s[1:]
    assert qs_log(qs_exp(zeroed)) == zeroed
    normalized = [F(1)] + s[1:]
    assert qs_exp(qs_log(normalized)) == normalized


@given(qseries, st.integers(-4, 4), st.integers(-4, 4))
def test_qs_pow_additivity(s, a, b):
    unit = [F(1)] + s[1:]  # invertible constant term
    assert qs_pow_int(unit, a + b) == truncated_product(qs_pow_int(unit, a),
                                                        qs_pow_int(unit, b))


@given(units, st.integers(0, 5))
def test_qs_pow_int_is_the_repeated_product(s, c):
    assert qs_pow_int(s, c) == repeated_product(s, c)


@given(units, st.integers(1, 5))
def test_qs_negative_pow_inverts_the_repeated_product(s, c):
    one = [F(1)] + [F(0)] * (len(s) - 1)
    assert truncated_product(qs_pow_int(s, -c), repeated_product(s, c)) == one
