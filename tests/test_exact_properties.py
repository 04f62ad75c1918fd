from hypothesis import given, strategies as st

from hilbwall.exact import qs_pow_int

# a q-series is a list, the q^n coefficient at index n; qs_pow_int takes
# integer series with constant term 1
units = st.lists(st.integers(-40, 40), min_size=3, max_size=6).map(
    lambda tail: [1] + tail)


def truncated_product(a, b):
    """Product of two series, known through the shorter order."""
    return [sum(a[i] * b[n - i] for i in range(n + 1))
            for n in range(min(len(a), len(b)))]


def repeated_product(s, c):
    out = [1] + [0] * (len(s) - 1)
    for _ in range(c):
        out = truncated_product(out, s)
    return out


@given(units, st.integers(-4, 4), st.integers(-4, 4))
def test_qs_pow_additivity(s, a, b):
    assert qs_pow_int(s, a + b) == truncated_product(qs_pow_int(s, a),
                                                     qs_pow_int(s, b))


@given(units, st.integers(0, 5))
def test_qs_pow_int_is_the_repeated_product(s, c):
    assert qs_pow_int(s, c) == repeated_product(s, c)


@given(units, st.integers(1, 5))
def test_qs_negative_pow_inverts_the_repeated_product(s, c):
    one = [1] + [0] * (len(s) - 1)
    assert truncated_product(qs_pow_int(s, -c), repeated_product(s, c)) == one
