"""Package-level guards: the public export list, and the verify checks that
must compare their series at the order they ask for and see a wrong base, a
wrong coefficient or a repeated term."""

import hilbwall
from hilbwall import verify, wallx
from hilbwall.exact import euler_inverse_series, macmahon_series
from hilbwall.wallx import (ch_series, euler_series_closed, euler_series_wc,
                            expand_full_crossing, expand_wall_terms)


def test_all_exports_resolve_once():
    assert len(hilbwall.__all__) == len(set(hilbwall.__all__))
    for name in hilbwall.__all__:
        assert hasattr(hilbwall, name), name


def test_euler_checks_fail_on_truncated_series(monkeypatch):
    # both series equally short: they agree, but not through q^20
    monkeypatch.setattr(verify, "euler_series_wc",
                        lambda d, c, order: euler_series_wc(d, c, 10))
    monkeypatch.setattr(verify, "euler_series_closed",
                        lambda d, c, order: euler_series_closed(d, c, 10))
    for check, d in ((verify.check_macdonald, 1), (verify.check_gottsche, 2),
                     (verify.check_dt_identity, 3)):
        passed, detail = check()
        assert not passed
        assert detail == f"dimension-{d} series at c=-6 known to q^10 and q^10, not q^20"


def test_macdonald_check_fails_on_a_wrong_base(monkeypatch):
    # both sides read the mutated base, so only the one-row diagram count sees it
    base_series = wallx._base_series

    def wrong_base(d, order):
        counts = base_series(d, order)
        if d == 1:
            counts[4] += 1
        return counts
    monkeypatch.setattr(wallx, "_base_series", wrong_base)
    passed, detail = verify.check_macdonald()
    assert not passed
    assert detail == "dimension-1 base series differs from the independent count"


def test_gottsche_check_fails_on_a_wrong_base(monkeypatch):
    # both sides read the mutated base, so only the fixed-point count sees it
    def wrong_partition_counts(order):
        counts = euler_inverse_series(order)
        counts[5] += 1
        return counts
    monkeypatch.setattr(wallx, "euler_inverse_series", wrong_partition_counts)
    passed, detail = verify.check_gottsche()
    assert not passed
    assert detail == "dimension-2 base series differs from the independent count"


def test_dt_check_fails_on_a_wrong_base(monkeypatch):
    # both sides read the mutated MacMahon counts, so only the plane-partition
    # count sees them
    def wrong_plane_partition_counts(order):
        counts = macmahon_series(order)
        counts[4] += 1
        return counts
    monkeypatch.setattr(wallx, "macmahon_series", wrong_plane_partition_counts)
    passed, detail = verify.check_dt_identity()
    assert not passed
    assert detail == "dimension-3 base series differs from the independent count"


def test_combinatorics_check_fails_on_a_repeated_term(monkeypatch):
    # a repeated term leaves the set of terms unchanged, so only the count sees it
    def repeat_full(n, m):
        terms = expand_full_crossing(n, m)
        return terms + terms[:1] if (n, m) == (3, 2) else terms

    def repeat_wall(n, m, n0):
        terms = expand_wall_terms(n, m, n0)
        return terms + terms[-1:] if (n, m, n0) == (4, 2, 1) else terms

    monkeypatch.setattr(verify, "expand_full_crossing", repeat_full)
    passed, detail = verify.check_combinatorics()
    assert not passed
    assert detail == "full-crossing terms differ at n=3, m=2"
    monkeypatch.setattr(verify, "expand_full_crossing", expand_full_crossing)
    monkeypatch.setattr(verify, "expand_wall_terms", repeat_wall)
    passed, detail = verify.check_combinatorics()
    assert not passed
    assert detail == "wall terms differ at n=4, m=2, n0=1"


def test_ch_series_check_compares_k2_to_q10(monkeypatch):
    # localization covers k = 2 only to q^8, so the closed form must see q^10
    def wrong_at_q10(k, order):
        series = ch_series(k, order)
        if k == 2 and order >= 10:
            series[10] = series[10] + series[10]
        return series
    monkeypatch.setattr(verify, "ch_series", wrong_at_q10)
    passed, detail = verify.check_ch_series_golden()
    assert not passed
    assert detail == "ch_2 series differs at q^10"
