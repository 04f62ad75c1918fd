"""The acceptance gate: one test per criterion of the verification suite.

Each test prints a single pass/fail line; the two criteria that carry
runtime budgets (the empty-bracket normalization and the ch_k series
checks) also assert them.  Run with ``pytest -v -s tests/test_acceptance.py``
to see the lines as they go by.
"""

import time

from hilbwall import verify


def _run(index, name, fn, budget=None):
    t0 = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - t0
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {index:2d}/12] {status}  {name}: {detail}")
    assert passed, detail
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s (budget {budget}s)"


def test_criterion_01_normalization():
    _run(1, "empty-bracket normalization", verify.check_normalization, budget=1.0)


def test_criterion_02_ch1_vanishing():
    _run(2, "ch_1 vanishing", verify.check_ch1_vanishing)


def test_criterion_03_closed_forms():
    _run(3, "ch_2 and ch_3 closed forms", verify.check_closed_forms)


def test_criterion_04_ch_series_golden():
    _run(4, "ch_k generating series", verify.check_ch_series_golden, budget=30.0)


def test_criterion_05_macdonald():
    _run(5, "Macdonald identity", verify.check_macdonald)


def test_criterion_06_gottsche():
    _run(6, "Goettsche identity", verify.check_gottsche)


def test_criterion_07_dt_identity():
    _run(7, "MacMahon identity", verify.check_dt_identity)


def test_criterion_08_dilaton_closure():
    _run(8, "dilaton closure", verify.check_dilaton_closure)


def test_criterion_09_tn_calculus():
    _run(9, "tree-locus calculus", verify.check_tn_calculus)


def test_criterion_10_property_suites():
    _run(10, "homogeneity, regularity, transpose symmetry",
         verify.check_property_suites)


def test_criterion_11_ifunction_threshold():
    _run(11, "nonpolar threshold", verify.check_ifunction_threshold)


def test_criterion_12_combinatorics():
    _run(12, "wall-crossing combinatorics", verify.check_combinatorics)
