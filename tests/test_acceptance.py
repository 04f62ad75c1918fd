"""The acceptance gate: one test per check of ``verify.ALL_CHECKS``.

Each test prints a single pass/fail line; the two checks that carry
runtime budgets (the empty-bracket normalization and the ch_k series
checks) also assert them.  The tests are made from the list, so a check
added to it is tested here too; each keeps the name
``test_criterion_NN_<check without its check_ prefix>``, so
``-k criterion_01`` names one test.  Run with
``pytest -v -s tests/test_acceptance.py`` to see the lines as they go by.
"""

import time

from hilbwall import verify

BUDGETS = {verify.check_normalization: 1.0, verify.check_ch_series_golden: 30.0}


def _acceptance_test(index, name, check):
    def test():
        t0 = time.perf_counter()
        passed, detail = check()
        elapsed = time.perf_counter() - t0
        status = "PASS" if passed else "FAIL"
        print(f"[ACCEPTANCE {index:2d}/{len(verify.ALL_CHECKS)}] {status}  {name}: {detail}")
        assert passed, detail
        if check in BUDGETS:
            assert elapsed < BUDGETS[check], f"{name} took {elapsed:.2f}s (budget {BUDGETS[check]}s)"

    test.__name__ = f"test_criterion_{index:02d}_{check.__name__.removeprefix('check_')}"
    return test


for _index, (_name, _check) in enumerate(verify.ALL_CHECKS, 1):
    _test = _acceptance_test(_index, _name, _check)
    globals()[_test.__name__] = _test
