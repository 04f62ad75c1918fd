"""Package-level guards: the public export list, and the verify checks that
must compare their series at the order they ask for."""

import hilbwall
from hilbwall import verify
from hilbwall.wallx import euler_series_closed, euler_series_wc


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
    for check, d in ((verify.check_macdonald, 1), (verify.check_gottsche, 2)):
        passed, detail = check()
        assert not passed
        assert detail == f"dimension-{d} series at c=-6 known to q^10 and q^10, not q^20"
