import hashlib
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb, factorial

import pytest

from hilbwall import hilb
from hilbwall.exact import Monomial
from hilbwall.hilb import (LocalizationError, conjugate, enumerate_partitions,
                           fixed_point_data, hilb_integral, tangent_weights,
                           taut_weights)
from hilbwall.ifun import nonpolar_ifunction
from hilbwall.verify import offdiagonal_bracket


def mono(exp, coeff):
    return Monomial(coeff, exp)


def pentagonal_partition_count(n, cache={0: 1}):
    """Euler's pentagonal-number recurrence, the counting oracle."""
    if n in cache:
        return cache[n]
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * pentagonal_partition_count(n - g1)
        if g2 <= n:
            total += sign * pentagonal_partition_count(n - g2)
        k += 1
    cache[n] = total
    return total


# --- partitions ---------------------------------------------------------------

def test_enumerate_partitions_basics():
    assert enumerate_partitions(0) == [()]
    assert len(enumerate_partitions(4)) == 5
    assert enumerate_partitions(4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(ValueError):
        enumerate_partitions(-1)
    for n in (0.5, 1.0, 3.0):
        with pytest.raises(TypeError):
            enumerate_partitions(n)


def test_partition_counts_match_pentagonal_recurrence():
    for n in range(0, 21):
        parts = enumerate_partitions(n)
        assert len(parts) == pentagonal_partition_count(n)
        # strictly decreasing as tuples: reverse-lexicographic, no repeats
        assert all(a > b for a, b in zip(parts, parts[1:])), n
        for lam in parts:
            assert sum(lam) == n and all(p > 0 for p in lam), lam
            assert all(a >= b for a, b in zip(lam, lam[1:])), lam
    assert len(enumerate_partitions(8)) == 22


def test_conjugate_is_involutive():
    assert conjugate(()) == ()
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_conjugate_counts_the_parts_above_each_column():
    for n in range(0, 13):
        for lam in enumerate_partitions(n):
            cols = lam[0] if lam else 0
            assert conjugate(lam) == tuple(sum(1 for p in lam if p > c) for c in range(cols))


# --- box data -----------------------------------------------------------------

def test_arm_leg_examples():
    # each box with arm a and leg l gives the hook pair (a+1, -l), (-a, l+1),
    # in row-major box order
    assert tangent_weights((1,)) == [(1, 0), (0, 1)]
    assert tangent_weights((2,))[:2] == [(2, 0), (-1, 1)]
    # the box (0,0) of (3,1) has arm 2 and leg 1
    assert tangent_weights((3, 1))[:2] == [(3, -1), (-2, 2)]


def test_tangent_weights_examples():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            tw = tangent_weights(lam)
            assert len(tw) == 2 * n
            assert (0, 0) not in tw


def test_taut_weights_examples():
    assert taut_weights((1,)) == [(0, 0)]
    assert sorted(taut_weights((2,))) == [(0, 0), (1, 0)]
    assert sorted(taut_weights((2, 1))) == [(0, 0), (0, 1), (1, 0)]
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            weights = taut_weights(lam)
            assert len(weights) == n
            assert weights.count((0, 0)) == 1


# --- localization anchors ------------------------------------------------------

def test_higher_ch_anchor_values():
    assert hilb_integral(2, [4]) == mono(0, F(-1, 16))
    assert hilb_integral(3, [4]) == mono(-2, F(-5, 144))
    assert hilb_integral(2, [5]) == mono(1, F(1, 60))
    assert hilb_integral(3, [6]) == mono(0, F(77, 4320))


def test_offdiagonal_oracle_on_every_small_bracket():
    brackets = [(n, ks) for n in range(1, 5) for m in range(7) for ks in enumerate_partitions(m)]
    # ch_0 pads, which the kernel reads as the rank n and the oracle sums
    # as the box count at every fixed point
    brackets += [(n, ks + (0,) * pads) for n in range(1, 5)
                 for m in range(5) for ks in enumerate_partitions(m) for pads in (1, 2)]
    assert len(brackets) == 120 + 96
    for n, ks in brackets:
        assert hilb_integral(n, ks) == offdiagonal_bracket(n, ks), (n, ks)


@pytest.fixture
def hilb_caches():
    """Every hilb lru_cache, cleared before and after the test, so that a
    kernel table built under a patch never reaches another test."""
    caches = [v for v in vars(hilb).values() if callable(getattr(v, "cache_info", None))]
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()


def test_regularity_check_fires_on_a_missing_fixed_point(monkeypatch, hilb_caches):
    # without the fixed point (3,1) the eps poles of the others do not cancel
    full = hilb.enumerate_partitions
    monkeypatch.setattr(hilb, "enumerate_partitions",
                        lambda n: [parts for parts in full(n) if parts != (3, 1)])
    with pytest.raises(LocalizationError):
        hilb_integral(4)
    with pytest.raises(LocalizationError):
        hilb_integral(4, [2])


def test_regularity_check_fires_on_every_pole_digit(monkeypatch, hilb_caches):
    # a planted row with inv = (1, 0, ..., 0) through eps^pole adds
    # eps^-pole to the empty bracket and nothing else.  The tables of
    # n = 6 and 7 have width 4 and that of n = 8 width 5, so both the
    # eps^-2 and the eps^-4 digits of the packed check are reached; the
    # list path must refuse the same rows
    full = hilb._fixed_points

    def planted(pole):
        def table(n):
            rows, common, width, norm = full(n)
            return rows + (((n,), (1,) + (0,) * pole, 1),), common, width, norm + 1
        return table

    for limit, packed in [(hilb.PACKED_MAX_BITS, True), (0, False)]:
        monkeypatch.setattr(hilb, "PACKED_MAX_BITS", limit)
        for n, width in [(6, 4), (7, 4), (8, 5)]:
            for pole in range(2, width, 2):
                for cache in hilb_caches:
                    cache.cache_clear()
                monkeypatch.setattr(hilb, "_fixed_points", planted(pole))
                assert hilb._fixed_points(n)[2] == width
                with pytest.raises(LocalizationError):
                    hilb_integral(n)
                assert (hilb._packed_rows.cache_info().currsize == 1) == packed


def test_bracket_grid_digest():
    # sha256 of 114 brackets as printed by the Fraction-summing kernel that
    # preceded the shared-denominator sum; guards n <= 20, above the n <= 5
    # where the tests compare with the off-diagonal sum
    shapes = [(), (2,), (4, 0), (3, 3), (2, 2, 2), (6,), (8, 1), (5, 4, 0, 0)]
    grid = [(n, ks) for n in range(1, 15) for ks in shapes] + [(18, (4,)), (20, (4,))]
    text = "\n".join(str(hilb_integral(n, ks)) for n, ks in grid)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "35995e25cc33b1a68dae88e6ca787e87aca37e6d4bcc71f029798791956f7486")


def test_bracket_grid_digest_at_larger_n():
    # sha256 of the 16 brackets as printed by the kernel that summed every
    # partition itself; guards the transposes the table leaves out above
    # n = 20, where no closed form covers these shapes
    shapes = [(), (2,), (4, 0), (3, 3), (2, 2, 2), (6,), (8, 1), (5, 4, 0, 0)]
    text = "\n".join(str(hilb_integral(n, ks)) for n in (21, 24) for ks in shapes)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a860d6d9d55ff1be2d1c3f6cbd8ed7e43d0a2ec8af51cdc0c77d977ace7f482c")


def test_bracket_memo_runs_the_kernel_once():
    hilb._bracket.cache_clear()
    # K = 8 = 2n - 2: at the nonpolar threshold, so both calls need the bracket
    nonpolar_ifunction(5, [4, 4])
    value = hilb_integral(5, [4, 4])
    info = hilb._bracket.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert info.maxsize is None
    assert value == offdiagonal_bracket(5, [4, 4])


def test_bracket_memo_never_evicts():
    # more distinct brackets than a bound of 256 would keep, then the first
    # again: it is still a hit
    hilb._bracket.cache_clear()
    grid = [(n, ks) for n in range(1, 9) for ks in combinations_with_replacement(range(1, 9), 3)]
    assert len(grid) > 256
    for n, ks in grid:
        hilb_integral(n, ks)
    misses = hilb._bracket.cache_info().misses
    assert misses == len(grid)
    hilb_integral(*grid[0])
    assert hilb._bracket.cache_info().misses == misses


def test_bracket_memo_size_and_bytes_on_the_benchmark_grid():
    import tracemalloc

    # every bracket of the bracket_batch grid (n <= 8, up to four indices
    # <= 8): the memo keys them without their ch_0, so 8 * 495 entries
    grid = [(n, ks) for n in range(1, 9) for m in range(5)
            for ks in combinations_with_replacement(range(1, 9), m)]
    hilb._bracket.cache_clear()
    for n, ks in grid:
        hilb_integral(n, ks)
        hilb_integral(n, ks + (0,) * (1 + len(ks) % 2))
    assert hilb._bracket.cache_info().currsize == len(grid) == 3960
    # with the tables warm, what the memo keeps per entry: 251 B measured
    # (CPython 3.11), key, dict slot, Monomial and Fraction
    hilb._bracket.cache_clear()
    tracemalloc.start()
    try:
        for n, ks in grid:
            hilb_integral(n, ks)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hilb._bracket.cache_info().currsize == len(grid)
    assert kept <= 288 * len(grid)


def test_input_validation():
    with pytest.raises(ValueError):
        hilb_integral(0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        nonpolar_ifunction(0, [2])  # the check is hilb_integral's
    with pytest.raises(ValueError):
        hilb_integral(2, [-1])
    with pytest.raises(ValueError):
        offdiagonal_bracket(2, [-1])


def test_zero_bracket_forms_no_factorials(monkeypatch, hilb_caches):
    # k! only scales a nonzero bracket: ch_k vanishes at n = 1 for k >= 1,
    # and the ch_1 bracket vanishes at every n
    def factorial(k):
        raise AssertionError(f"factorial({k}) of a zero bracket")

    monkeypatch.setattr(hilb, "factorial", factorial)
    assert hilb_integral(1, [10 ** 6]) == Monomial(0, 0)
    assert nonpolar_ifunction(1, [10 ** 6]) == Monomial(0, 0, "u")
    assert hilb_integral(5, [1]) == Monomial(0, 0)


def test_non_integer_input_is_rejected_whatever_the_caches_hold(hilb_caches):
    with pytest.raises(TypeError):
        hilb_integral(3, [2.5])  # not <ch_2>_3
    with pytest.raises(TypeError):
        nonpolar_ifunction(3, [2.0])
    with pytest.raises(TypeError):
        hilb_integral(3.0)
    # the cached key (3, ()) equals (3.0, ()), so a cached bracket must not answer
    hilb_integral(3)
    with pytest.raises(TypeError):
        hilb_integral(3.0)


def test_cold_bracket_caches_only_eps_lists(hilb_caches):
    def entries():
        return {cache.__name__: cache.cache_info().currsize
                for cache in hilb_caches if cache.cache_info().currsize}

    hilb_integral(8, [2, 3])
    # one table with a row per transpose pair of partitions of 8, one ch
    # table per k, each carrying its norm, the rows and the ch tables
    # packed at one base (128 bits), one bracket
    assert len(hilb._fixed_points(8)[0]) == 12
    tables = {"_fixed_points": 1, "_ch_eps": 2, "_packed_rows": 1, "_packed_ch": 2}
    assert entries() == {**tables, "_bracket": 1}
    # a second bracket at n = 8 and the same base adds no table: the
    # partitions are enumerated once
    hilb_integral(8, [2])
    assert entries() == {**tables, "_bracket": 2}
    # ch_0 is the rank: a padded bracket shares the memo entry of its
    # unpadded bracket and builds no ch_0 table
    misses = hilb._bracket.cache_info().misses
    unpadded = hilb_integral(8, [2, 3])
    assert hilb_integral(8, [0, 2, 3]) == Monomial(unpadded.coeff * 8, unpadded.exp)
    assert hilb._bracket.cache_info().misses == misses
    assert entries() == {**tables, "_bracket": 2}
    # the empty bracket packs the rows at a base of its own (64 bits)
    hilb_integral(8)
    assert entries() == {**tables, "_packed_rows": 2, "_bracket": 3}
    # a table too wide to pack runs the lists and packs nothing
    hilb_integral(16, [2])
    assert entries() == {**tables, "_fixed_points": 2, "_ch_eps": 3, "_packed_rows": 2,
                         "_bracket": 4}
    lam = (3, 1)
    data = fixed_point_data(lam)
    assert (data.tangent, data.taut) == (tuple(tangent_weights(lam)), tuple(taut_weights(lam)))


def packing_grid():
    """Brackets on both sides of PACKED_MAX_BITS: every multiset of at most
    three indices <= 8 and a few large indices at n <= 10, and shapes
    whose bits * width lies from 1,344 to 3,456 at n = 12..16."""
    grid = [(n, ks) for n in range(1, 11) for m in range(4)
            for ks in combinations_with_replacement(range(9), m)]
    grid += [(n, ks) for n in range(1, 11) for ks in [(30,), (30, 30), (100,)]]
    grid += [(n, ks) for n in range(12, 17)
             for ks in [(), (2,), (4,), (8,), (2, 2), (3, 5), (8, 8), (3, 4, 5), (20,)]]
    return grid


def test_packed_and_list_paths_agree(monkeypatch, hilb_caches):
    grid = packing_grid()
    values = []
    for limit in (0, 10 ** 9):
        monkeypatch.setattr(hilb, "PACKED_MAX_BITS", limit)
        hilb._bracket.cache_clear()
        values.append([hilb_integral(n, ks) for n, ks in grid])
        # 0 packs nothing, 10**9 packs every bracket with an insertion
        packed = hilb._packed_ch.cache_info().currsize
        assert (packed == 0) == (limit == 0)
    assert values[0] == values[1]


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_packed_base_holds_every_digit(monkeypatch, hilb_caches):
    # the base 2^bits the kernel picks must hold, as a signed digit, every
    # coefficient below eps^width of the row sum, multiplied out from the
    # lists without truncation
    bases = {}
    packed_rows = hilb._packed_rows

    def recording(n, bits):
        bases[n] = bits
        return packed_rows(n, bits)

    monkeypatch.setattr(hilb, "_packed_rows", recording)
    grid = packing_grid()
    count = 0
    for n, ks in grid:
        ks = tuple(k for k in ks if k)
        hilb._bracket.cache_clear()
        bases.clear()
        hilb_integral(n, ks)
        if n not in bases:
            continue
        count += 1
        rows, _, width, _ = hilb._fixed_points(n)
        total = [0] * width
        for r, (_, inv, factor) in enumerate(rows):
            term = [0] * (width - len(inv)) + [factor * x for x in inv]
            for k in ks:
                term = convolve(term, hilb._ch_eps(n, k)[0][r])
            total = [x + y for x, y in zip(total, term)]
        assert max(map(abs, total)) < 2 ** (bases[n] - 1), (n, ks)
        assert bases[n] * width <= hilb.PACKED_MAX_BITS
    # every bracket at n <= 10 but the largest indices packs, and some at
    # n = 12, 13 do; the rest run the lists
    assert (count, len(grid)) == (2233, 2275)


def test_inverse_euler_inverts_the_tangent_euler_class():
    points = [lam for n in range(1, 11) for lam in enumerate_partitions(n)]
    assert len(points) == 138
    for lam in points:
        # D, the non-pole factors (a+b) + (b-a)*eps through eps^P, and the
        # pole slopes b - a
        tangent = tangent_weights(lam)
        poles = sum(1 for a, b in tangent if a + b == 0)
        den, slopes = [1] + [0] * poles, 1
        for a, b in tangent:
            if a + b == 0:
                slopes *= b - a
            else:
                den = [(a + b) * x + (b - a) * y for x, y in zip(den, [0] + den)]
        inv, local = hilb._inverse_euler(lam)
        d0 = den[0]
        assert hilb._mul_trunc(inv, den, len(inv)) == [d0 ** (poles + 1)] + [0] * poles, lam
        assert local == slopes * d0 ** (poles + 1), lam


def distinct_odd_part_count(n):
    """Partitions of n into distinct odd parts, as many as the self-conjugate
    partitions of n: the counting oracle for the table's rows."""
    counts = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for total in range(n, part - 1, -1):
            counts[total] += counts[total - part]
    return counts[n]


def test_table_keeps_one_row_per_transpose_pair():
    assert [distinct_odd_part_count(n) for n in range(13)] == [
        1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    for n in range(1, 13):
        rows, common, _, _ = hilb._fixed_points(n)
        assert 2 * len(rows) == pentagonal_partition_count(n) + distinct_odd_part_count(n)
        covered = []
        for parts, _, factor in rows:
            paired = parts != conjugate(parts)
            # a row stands for its transpose too, so it counts twice
            assert factor == (1 + paired) * common // hilb._inverse_euler(parts)[1], parts
            covered += [parts, conjugate(parts)] if paired else [parts]
        assert sorted(covered) == sorted(enumerate_partitions(n))


def eps_product(lam, ks):
    """The inverse Euler list of ``lam`` times its k! ch_k lists, the box sums
    of (-(c+r) + (c-r)*eps)^k computed directly, and the scale local of the
    list."""
    s, local = hilb._inverse_euler(lam)
    for k in ks:
        ch = [sum(comb(k, j) * (-(c + r)) ** (k - j) * (c - r) ** j for c, r in taut_weights(lam))
              if j <= k else 0 for j in range(len(s))]
        s = hilb._mul_trunc(s, ch, len(s))
    return list(s), local


def test_transpose_is_the_row_at_minus_eps():
    # swapping t1 and t2 is eps -> -eps on the line t1 = t - eps, t2 = t + eps:
    # the odd coefficients change sign, and so do the P pole slopes
    points = [lam for n in range(1, 11) for lam in enumerate_partitions(n)]
    assert len(points) == 138
    for lam in points:
        for ks in [(), (2,), (3, 1), (4, 0, 2)]:
            s, local = eps_product(lam, ks)
            s_t, local_t = eps_product(conjugate(lam), ks)
            assert s_t == [(-1) ** j * c for j, c in enumerate(s)], (lam, ks)
            assert local_t == (-1) ** (len(s) - 1) * local, (lam, ks)


def test_paired_rows_counted_once_break_regularity(monkeypatch, hilb_caches):
    # a row must count for its transpose too; counted once, each pair adds
    # half its sum, and the eps poles cancel only where the self-conjugate
    # rows alone are regular.  At n = 2, 3 and 6 they are, so
    # the sum is regular but wrong there, which check 1 (1/(n! t^(2n)))
    # catches instead
    full = hilb._fixed_points

    def once(n):
        # the full table's norm still bounds the halved factors
        rows, common, width, norm = full(n)
        rows = tuple((parts, inv, factor // (1 + (parts != conjugate(parts))))
                     for parts, inv, factor in rows)
        return rows, common, width, norm

    monkeypatch.setattr(hilb, "_fixed_points", once)
    for n in (4, 5, 7):
        with pytest.raises(LocalizationError):
            hilb_integral(n)
    for n in (2, 3, 6):
        assert hilb_integral(n) != Monomial(F(1, factorial(n)), -2 * n)


def test_insertions_are_a_multiset():
    assert hilb_integral(3, [3, 2]) == hilb_integral(3, [2, 3])
    assert hilb_integral(4, [2, 0, 4]) == hilb_integral(4, [4, 2, 0])


def test_offdiagonal_oracle_at_n5():
    assert hilb_integral(5, [2, 2]) == offdiagonal_bracket(5, [2, 2])
    assert hilb_integral(5, [6]) == offdiagonal_bracket(5, [6])
    assert hilb_integral(5, [4]) == offdiagonal_bracket(5, [4])
    assert hilb_integral(5, [2, 3]) == offdiagonal_bracket(5, [2, 3])
    # any iterable, in any order: a one-shot iterator must serve every
    # fixed point and every evaluation point
    assert offdiagonal_bracket(3, iter([3, 2])) == hilb_integral(3, [2, 3])
    assert hilb_integral(5, [6]) == mono(-4, F(1, 120))
