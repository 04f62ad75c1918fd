"""Package-level guards: the public export list, the modules a cold CLI
import leaves out, the frozen closed forms of the ch_k series, and the
verify checks that must compare their series at the order they ask for,
see a wrong base, a wrong coefficient, a repeated term or a wrong tangent
weight, and see one wrong value at the top of their ranges."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from itertools import count
from math import factorial
from pathlib import Path

import pytest

import hilbwall
from hilbwall import verify, wallx
from hilbwall.exact import Monomial
from hilbwall.hilb import LocalizationError
from hilbwall.wallx import (ch_series, euler_series_closed, euler_series_wc,
                            expand_full_crossing, expand_wall_terms)


def test_all_exports_resolve_once():
    assert len(hilbwall.__all__) == len(set(hilbwall.__all__))
    for name in hilbwall.__all__:
        assert hasattr(hilbwall, name), name


def test_cli_import_leaves_out_verify_dataclasses_and_inspect():
    # a cold CLI process pays for every module it imports, and only the verify
    # command needs the checks; -S keeps site's own imports out of the list
    code = ("import sys, hilbwall.cli; print(sorted("
            "{'hilbwall.verify', 'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


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


@pytest.mark.parametrize("check, d", [(verify.check_macdonald, 1),
                                      (verify.check_gottsche, 2),
                                      (verify.check_dt_identity, 3)],
                         ids=["check_macdonald", "check_gottsche", "check_dt_identity"])
def test_euler_check_fails_on_a_wrong_base(monkeypatch, check, d):
    # an extra factor 1/(1 - q^4) in the product both sides read, so only the
    # independent fixed-point count sees it
    log_derivative = wallx._log_derivative

    def extra_factor(d, order):
        s = log_derivative(d, order)
        for k in range(4, order + 1, 4):
            s[k] += 4
        return s
    monkeypatch.setattr(wallx, "_log_derivative", extra_factor)
    assert check() == (False, f"dimension-{d} base series differs from the independent count")


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


def test_combinatorics_check_fails_on_an_insertion_in_two_blocks(monkeypatch):
    # the last wall term at (6, 4, 1) gains insertion 0 in its first block as
    # well: the count stays and no term repeats, so only the test that each
    # insertion lies in exactly one slot sees it
    def two_blocks(n, m, n0):
        terms = expand_wall_terms(n, m, n0)
        if (n, m, n0) == (6, 4, 1):
            k, retained, blocks = terms[-1]
            terms[-1] = (k, retained, ((0,),) + blocks[1:])
        return terms

    monkeypatch.setattr(verify, "expand_wall_terms", two_blocks)
    assert verify.check_combinatorics() == (False, "wall terms differ at n=6, m=4, n0=1")


# (check, the name it reads, the one call made wrong, how, the failure):
# a check that stopped short of the top of its range would still pass
TOP_OF_RANGE_FAULTS = [
    (verify.check_normalization, "hilb_integral", (25,), lambda v: Monomial(2 * v.coeff, v.exp),
     "empty bracket mismatch at n=25"),
    (verify.check_ch1_vanishing, "hilb_integral", (25, [1]), lambda v: Monomial(1, -49),
     "<ch_1>_25 is nonzero"),
    (verify.check_closed_forms, "hilb_integral", (25, [3]), lambda v: Monomial(2 * v.coeff, v.exp),
     "<ch_3>_25 mismatch"),
    (verify.check_ch_series_golden, "hilb_integral", (16, [12]),
     lambda v: Monomial(2 * v.coeff, v.exp),
     "connected piece of ch_12 is nonzero at q^16"),
    # the top of both ranges of the localization half, k = 20 and q^16
    (verify.check_ch_series_golden, "hilb_integral", (16, [20]),
     lambda v: Monomial(2 * v.coeff, v.exp),
     "connected piece of ch_20 is nonzero at q^16"),
    # past the frozen pieces (k <= 6) and the localization half (q^16)
    (verify.check_ch_series_golden, "ch_series", (20, 200),
     lambda v: v[:200] + [Monomial(v[200].coeff + 1, -380)],
     "ch_20 series differs from exp(q) C_20 at q^200"),
    # the closures for d = 3, the ninth of them, k = 8, with its constant term off by one
    (verify.check_dilaton_closure, "pure_tilde_closures", (3,),
     lambda closures: ([v[0] + 1] + v[1:] if k == 8 else v for k, v in enumerate(closures)),
     "dilaton closure fails at k=8, d=3, c_d=0"),
    (verify.check_tn_calculus, "tn_integral", (10, 16, 1), lambda v: v + 1,
     "square-removal recursion fails at (10,16,1)"),
    # 6! (8!)^3 <ch_8^3>_6 is odd, and no off-diagonal comparison reaches
    # three indices at n <= 6: only the integrality claim sees the halved value
    (verify.check_property_suites, "hilb_integral", (6, (8, 8, 8)),
     lambda v: Monomial(v.coeff / 2, v.exp), "n! prod k! C is not an integer at n=6, ks=(8, 8, 8)"),
    (verify.check_property_suites, "offdiagonal_bracket", (6, (8, 8)),
     lambda v: Monomial(2 * v.coeff, v.exp), "off-diagonal value differs at n=6, ks=(8, 8)"),
    (verify.check_property_suites, "offdiagonal_bracket", (21, (2, 2, 2, 2)),
     lambda v: Monomial(2 * v.coeff, v.exp),
     "off-diagonal value differs at n=21, ks=(2, 2, 2, 2)"),
    (verify.check_ifunction_threshold, "nonpolar_ifunction", (6, (4, 4)),
     lambda v: Monomial(1, -2, "u"), "threshold fails at n=6, ks=(4, 4)"),
    # the composition (12,) left out
    (verify.check_combinatorics, "expand_full_crossing", (12, 0), lambda v: v[:-1],
     "composition count fails at n=12"),
    # the first term, which retains all four insertions, with its retained
    # tuple reversed: the count stays and no term repeats
    (verify.check_combinatorics, "expand_wall_terms", (6, 4, 1),
     lambda v: [(v[0][0], v[0][1][::-1], v[0][2])] + v[1:],
     "wall terms differ at n=6, m=4, n0=1"),
    (verify.check_combinatorics, "expand_full_crossing", (6, 4), lambda v: v[:-1],
     "full-crossing terms differ at n=6, m=4"),
]


@pytest.mark.parametrize("check, name, at, fault, detail", TOP_OF_RANGE_FAULTS,
                         ids=[check.__name__ + {"offdiagonal_bracket": "_offdiagonal",
                                                "ch_series": "_q200",
                                                "expand_wall_terms": "_wall",
                                                "expand_full_crossing": "_full"}.get(name, "")
                              + (f"_n{at[0]}" if at[0] in (12, 21) else "")
                              + ("_k20" if at == (16, [20]) else "")
                              for check, name, at, *_ in TOP_OF_RANGE_FAULTS])
def test_check_fails_on_one_wrong_value_at_the_top_of_its_range(
        monkeypatch, check, name, at, fault, detail):
    right = getattr(verify, name)

    def planted(*args):
        value = right(*args)
        return fault(value) if args == at else value
    monkeypatch.setattr(verify, name, planted)
    assert check() == (False, detail)


def test_ch_series_check_fails_on_a_connected_piece_past_its_degree(monkeypatch):
    # <ch_20>_12 doubled, where check 4 reads C_20 one coefficient past its
    # bound q^11; the series still matches localization wherever it is compared
    right = verify.hilb_integral

    def planted(n, ks):
        value = right(n, ks)
        return Monomial(2 * value.coeff, value.exp) if (n, list(ks)) == (12, [20]) else value
    monkeypatch.setattr(verify, "hilb_integral", planted)
    assert verify.check_ch_series_golden() == (
        False, "connected piece of ch_20 is nonzero at q^12")


def test_a_shifted_dilaton_factor_fails_the_closure_and_the_euler_checks(monkeypatch):
    # the FM factor c_d - 2 taken as c_d - 3: the Euler checks compare the
    # wall-crossing sum, which reads its C(c, k) from these closures, with the
    # closed form, so they see the shift as well as the closure check does
    def shifted(d):
        value = [1]
        for m in count():
            yield value
            m += m == 2
            value = [(-1) ** d * (lower - m * same)
                     for same, lower in zip(value + [0], [0] + value)]
    monkeypatch.setattr(verify, "pure_tilde_closures", shifted)
    monkeypatch.setattr(wallx, "pure_tilde_closures", shifted)
    assert verify.check_dilaton_closure() == (False, "dilaton closure fails at k=3, d=1, c_d=2")
    for check, d in ((verify.check_macdonald, 1), (verify.check_gottsche, 2),
                     (verify.check_dt_identity, 3)):
        assert check() == (False, f"dimension-{d} series mismatch at c=-6")


def test_property_check_fails_on_its_degree_claim_for_a_shifted_weight(monkeypatch):
    # the first weight (a + 1, -l) of each fixed point shifted by -t2, only
    # where the off-diagonal sum reads the weights: the kernel and the
    # transpose half still see the right ones.  No shifted weight vanishes
    # at the sum's points, and the sum stops being a polynomial
    right = verify.tangent_weights

    def shifted(lam):
        (a, b), *rest = right(lam)
        return [(a, b - 1), *rest]
    monkeypatch.setattr(verify, "tangent_weights", shifted)
    assert verify.check_property_suites() == (
        False, "off-diagonal sum has degree above K at n=1, ks=()")
    for n in range(2, 7):
        for ks in [(), (2,), (3, 4), (0, 8)]:
            with pytest.raises(LocalizationError, match="degree above K"):
                verify.offdiagonal_bracket(n, ks)


def test_offdiagonal_degree_claim_refuses_degree_k_plus_one(monkeypatch):
    # the weight t2 of one corner box left out at every fixed point: the sum
    # becomes t2 times the right one, which at t1 = 1 is M times a constant
    # for these brackets, of degree K + 1 = 1.  The degree claim must refuse
    # it before the homogeneity test does
    right = verify.tangent_weights

    def dropped(lam):
        weights = right(lam)
        weights.remove((0, 1))
        return weights
    monkeypatch.setattr(verify, "tangent_weights", dropped)
    for n, ks in [(1, ()), (4, ()), (6, (0, 0))]:
        with pytest.raises(LocalizationError, match="degree above K"):
            verify.offdiagonal_bracket(n, ks)


def test_ch_series_check_compares_k2_to_q200(monkeypatch):
    # localization covers k = 2 only to q^16, so exp(q) times the piece, which
    # equals the frozen one, must see q^200
    def wrong_at_q200(k, order):
        series = ch_series(k, order)
        if k == 2 and order >= 200:
            series[200] = Monomial(2 * series[200].coeff, series[200].exp)
        return series
    monkeypatch.setattr(verify, "ch_series", wrong_at_q200)
    passed, detail = verify.check_ch_series_golden()
    assert not passed
    assert detail == "ch_2 series differs from exp(q) C_2 at q^200"


def test_ch_series_check_fails_on_a_wrong_frozen_piece(monkeypatch):
    # the q^4 coefficient of the frozen C_6, its top one, off by 1/576
    frozen = {**verify._CH_SERIES_FACTORS, 6: {**verify._CH_SERIES_FACTORS[6], 4: Fraction(0)}}
    monkeypatch.setattr(verify, "_CH_SERIES_FACTORS", frozen)
    assert verify.check_ch_series_golden() == (
        False, "connected piece of ch_6 differs from its frozen form at q^4")


def test_closed_forms_check_reads_the_frozen_pieces(monkeypatch):
    # the frozen C_3 doubled: check 3 must compare <ch_3>_n with the table
    frozen = {**verify._CH_SERIES_FACTORS, 3: {2: Fraction(1, 3)}}
    monkeypatch.setattr(verify, "_CH_SERIES_FACTORS", frozen)
    assert verify.check_closed_forms() == (False, "<ch_3>_2 mismatch")


def test_frozen_ch_series_factors_reproduce_the_closed_forms():
    # sha256 of the series exp(q/t^2) C_k through q^40, its q^n coefficient
    # sum_j c_j / (n - j)! * t^(k - 2n), as printed by the hand-expanded
    # closed forms that the table of factors replaced
    digests = {
        2: "a306de236b6e7996449be72ce6366c6b7678d312745ee21163af571f5e2ff13f",
        3: "6bfafff992a86aec1eb77b065538f6e0df05a9f06281666a739a4a1fbd67156a",
        4: "502e5d82d020f91e3b6ced9a813600addccc46c23b705a9ab9d735a0363ed0db",
        5: "fac88248c48afad7dfae7c4c1a3efd0519bb911b0020ac8ab360bf733810503f",
        6: "ab40e1c07373fcb9bc95d849405f9e8dbe03100f50bd4707072b54b9a838427a",
    }
    assert set(verify._CH_SERIES_FACTORS) == set(digests)
    for k, digest in digests.items():
        factor = verify._CH_SERIES_FACTORS[k]
        series = [Monomial(sum(c / factorial(n - j) for j, c in factor.items() if j <= n),
                           k - 2 * n) for n in range(41)]
        assert hashlib.sha256(str(series).encode()).hexdigest() == digest, k
