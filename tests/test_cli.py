import hashlib
import json
from fractions import Fraction

import pytest

from hilbwall.cli import run
from hilbwall.exact import ExactError, Monomial
from hilbwall.hilb import LocalizationError, hilb_integral


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilb_integral_json(capsys):
    code, out, err = invoke(capsys, "hilb-integral", "--n", "3", "--ch", "2",
                            "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["result", "query", "version"]
    assert doc["result"] == {"variable": "t",
                             "terms": [{"coeff": "-1/4", "exp": -4}]}
    assert doc["query"] == {"command": "hilb-integral", "n": 3, "ch": [2]}


def test_hilb_integral_identity_json(capsys):
    code, out, _ = invoke(capsys, "hilb-integral", "--n", "1", "--format", "json")
    doc = json.loads(out)
    assert doc["result"] == {"variable": "t",
                             "terms": [{"coeff": "1", "exp": -2}]}


def test_zero_result_has_empty_terms(capsys):
    code, out, _ = invoke(capsys, "hilb-integral", "--n", "5", "--ch", "1",
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"variable": "t", "terms": []}


def test_tn_table_output(capsys):
    code, out, _ = invoke(capsys, "tn", "--n", "2", "--psi1", "1", "--psiinf", "0")
    assert code == 0
    assert out == "-1\n"


def test_euler_check_match(capsys):
    code, out, _ = invoke(capsys, "euler", "--d", "2", "--c", "24",
                          "--order", "3", "--check")
    assert code == 0
    assert "MATCH" in out
    assert "q^1: 24" in out and "q^2: 324" in out and "q^3: 3200" in out


def test_ch_series_json_schema(capsys):
    code, out, _ = invoke(capsys, "ch-series", "--k", "2", "--order", "3",
                          "--format", "json")
    doc = json.loads(out)
    coeffs = doc["result"]["coefficients"]
    assert doc["result"]["variable"] == "q"
    assert coeffs[0] == [] and coeffs[1] == []
    assert coeffs[2] == [{"coeff": "-1/4", "exp": -2}]
    assert coeffs[3] == [{"coeff": "-1/4", "exp": -4}]


def test_ch_series_table_odd_k(capsys):
    # odd exponents carry the sign of u -> -psi1 into the tree-locus terms
    code, out, err = invoke(capsys, "ch-series", "--k", "3", "--order", "4")
    assert code == 0 and err == ""
    assert out == ("q^0: 0\n"
                   "q^1: 0\n"
                   "q^2: 1/6*t^-1\n"
                   "q^3: 1/6*t^-3\n"
                   "q^4: 1/12*t^-5\n")


def test_dt_check_output(capsys):
    code, out, _ = invoke(capsys, "dt-check", "--c", "2", "--order", "6")
    assert code == 0
    assert out == "MATCH\n"


def test_partitions_table(capsys):
    code, out, _ = invoke(capsys, "partitions", "--n", "3")
    assert code == 0
    assert out == "3\n2,1\n1,1,1\ncount: 3\n"


def test_determinism(capsys):
    first = invoke(capsys, "hilb-integral", "--n", "4", "--ch", "2", "--ch", "2",
                   "--format", "json")
    second = invoke(capsys, "hilb-integral", "--n", "4", "--ch", "2", "--ch", "2",
                    "--format", "json")
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = invoke(capsys, "ifunction", "--n", "2", "--ch", "2",
                          "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["terms"] == [{"coeff": "-1/4", "exp": 0}]
    assert doc["result"]["variable"] == "u"


def test_range_error_exits_2(capsys):
    code, out, err = invoke(capsys, "hilb-integral", "--n", "0")
    assert code == 2
    assert out == "" and "error" in err


def test_flag_parse_error_exits_2(capsys):
    code, _, err = invoke(capsys, "tn", "--n", "2", "--psi1", "one", "--psiinf", "0")
    assert code == 2
    assert err != ""


def test_unknown_command_exits_2(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["hilb-integral", "--n", "abc"],
    ["hilb-integral"],
    [],
    ["frobnicate"],
    ["partitions", "--n", "3", "--format", "xml"],
    ["ch-series", "--k", "2", "--k", "3", "--order", "4"],
    ["ch-series", "--ch", "2", "--k", "3", "--order", "4"],
    ["partitions", "--n", "41"],
    ["hilb-integral", "--n", "41"],
    ["ch-series", "--k", "2", "--order", "201"],
    ["euler", "--d", "2", "--c", "24", "--order", "201", "--check"],
    ["dt-check", "--c", "5", "--order", "201"],
    ["tn", "--n", "201", "--psi1", "1", "--psiinf", "398"],
], ids=["bad-int", "missing-flag", "no-command", "unknown-command", "bad-choice",
        "repeated-k", "repeated-k-alias", "partitions-n-too-large",
        "hilb-n-too-large", "ch-series-order-too-large", "euler-order-too-large",
        "dt-check-order-too-large", "tn-n-too-large"])
def test_flag_error_prints_one_line(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_long_exact_values_print_in_full(capsys):
    # the coefficient has more digits than CPython's default int-to-str limit
    code, out, err = invoke(capsys, "hilb-integral", "--n", "3", "--ch", "2000",
                            "--format", "json")
    assert code == 0 and err == ""
    (term,) = json.loads(out)["result"]["terms"]
    assert len(term["coeff"]) > 4300
    got = Monomial(Fraction(term["coeff"]), term["exp"])
    assert got == hilb_integral(3, [2000])


def test_verify_cli_wiring_pass(monkeypatch, capsys):
    from hilbwall import cli as climod
    from hilbwall.verify import CheckResult
    monkeypatch.setattr(climod, "run_all_checks",
                        lambda: [CheckResult("alpha", True, "fine")])
    code, out, _ = invoke(capsys, "verify")
    assert code == 0
    assert "PASS" in out and "all checks passed" in out


def test_verify_cli_wiring_fail(monkeypatch, capsys):
    from hilbwall import cli as climod
    from hilbwall.verify import CheckResult
    monkeypatch.setattr(climod, "run_all_checks",
                        lambda: [CheckResult("alpha", True, "fine"),
                                 CheckResult("beta", False, "broken")])
    code, out, _ = invoke(capsys, "verify")
    assert code == 1
    assert "FAIL" in out and "SOME CHECKS FAILED" in out


def test_verify_cli_json_shape(monkeypatch, capsys):
    from hilbwall import cli as climod
    from hilbwall.verify import CheckResult
    monkeypatch.setattr(climod, "run_all_checks",
                        lambda: [CheckResult("alpha", True, "fine")])
    code, out, _ = invoke(capsys, "verify", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["checks"] == [
        {"name": "alpha", "passed": True, "detail": "fine"}]


def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.json"
    code, out, err = invoke(capsys, "hilb-integral", "--n", "3", "--ch", "2",
                            "--format", "json", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and not target.exists()


@pytest.mark.parametrize("error", [ExactError, LocalizationError])
def test_domain_error_exits_2_with_one_line(monkeypatch, capsys, error):
    from hilbwall import cli as climod

    def broken(n, ks):
        raise error("localization sum not regular on diagonal")
    monkeypatch.setattr(climod, "hilb_integral", broken)
    code, out, err = invoke(capsys, "hilb-integral", "--n", "3", "--format", "json")
    assert code == 2 and out == ""
    assert err == "error: localization sum not regular on diagonal\n"


def test_ch_series_above_the_bracket_bound_exits_2(monkeypatch, capsys):
    from hilbwall import cli as climod

    def unreachable(k, order):
        raise AssertionError("ch_series must not run")
    monkeypatch.setattr(climod, "ch_series", unreachable)
    # the seeds reach n = min((k + 2) // 2, order) = 45
    code, out, err = invoke(capsys, "ch-series", "--k", "200", "--order", "45")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "40" in err
    # at n = 40 the command still reaches ch_series
    with pytest.raises(AssertionError, match="must not run"):
        run(["ch-series", "--k", "200", "--order", "40"])


# (command line, format, exit code, stderr, sha256 of stdout): the README
# examples and the edge cases around them, recorded once and pinned so that
# any change to the rendered bytes shows up here
BYTE_STABLE = [
    ('partitions --n 4', 'table', 0, '',
     '06d392a35588437923e244105840907c23bfd88d69080999735c1eb85fa0aedc'),
    ('partitions --n 4', 'json', 0, '',
     '97ff13023928627ba5bf3311e325e61cc01e47f4673ce9990e2d1c0d481e2c4f'),
    # the empty partition: the "(empty)" line and the [[]] listing
    ('partitions --n 0', 'table', 0, '',
     'a1a3ea31c2e289f1ad67b482acc8a99c6efc698646bf3377c47b86aa748d57bc'),
    ('partitions --n 0', 'json', 0, '',
     'b403dd07a0a29cab190577e9e439ef7143ec814bd8405ed15c972564a1ec7458'),
    ('hilb-integral --n 3 --ch 2', 'table', 0, '',
     'fdd70c93607c24a65c57c3d8eefe7024180d679978d0106fcecdf5d4c89d7797'),
    ('hilb-integral --n 3 --ch 2', 'json', 0, '',
     '615ab515d596b6e6d7b0638fe54ba1c93405e651b73a35bea7b48b054540797d'),
    ('hilb-integral --n 4 --ch 2 --ch 2', 'table', 0, '',
     '672fd9c7a1876576072dd5d66fb875a3a645e756e3ab0dce02ea54723b0265a8'),
    ('hilb-integral --n 4 --ch 2 --ch 2', 'json', 0, '',
     '5ef8c5a15e71985279a9c39589ce5cb748c36c6bf6c6d6d03ca51ea95073f801'),
    ('ifunction --n 2 --ch 4', 'table', 0, '',
     '78aafe80978eb6d0036274c7300f31f6c9cf80bd17794092577e0644ff154efc'),
    ('ifunction --n 2 --ch 4', 'json', 0, '',
     'd3e338657807652e3ebe0a6234647a010d7d2018d1d9d01a07ff11c1726e7cc4'),
    ('tn --n 2 --psi1 1 --psiinf 0', 'table', 0, '',
     'ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28'),
    ('tn --n 2 --psi1 1 --psiinf 0', 'json', 0, '',
     '79fafe9007ef3b40a491d2dea69f4a76073b5ef662eb4521efbaf7a5ec0431d2'),
    ('tn --n 4 --psi1 2 --psiinf 3', 'table', 0, '',
     '4b883e04ed1a2af32c21811a12f2ccc766a1d73040b533ae4bcdfad8aca74293'),
    ('tn --n 4 --psi1 2 --psiinf 3', 'json', 0, '',
     '746c3cec0749f92d754f76da431e27f8ddc6d063f870f33b1fb071f36369d1d8'),
    ('ch-series --k 4 --order 10', 'table', 0, '',
     '2100898fd8a9019db616dac7dea500bc66a9e1c2a27779a4aeaeab561e675de6'),
    ('ch-series --k 4 --order 10', 'json', 0, '',
     '012bc044cc966ffa26f8fdcde343bed51469352c3fd4de10c8b22f7062c10dc7'),
    ('ch-series --k 3 --order 4', 'table', 0, '',
     '0bc6a280c699c45f44170b8e591a40db47dec860c7b1c58be6414015d8a1bb85'),
    ('ch-series --k 3 --order 4', 'json', 0, '',
     '8c9edea5b56f613f3132c66159e726d95c8928c39e8efebe953f040de5bdf74e'),
    ('ch-series --k 0 --order 5', 'table', 0, '',
     '61068b772e4003b0f9c9835d1991157453022036052da1a741c59bafd59a8ec9'),
    ('ch-series --k 0 --order 5', 'json', 0, '',
     '22cff916ca288549d3c520e01f72512a7361e2fe23efabf5f8712e5e45b4d3f7'),
    ('euler --d 2 --c 24 --order 3 --check', 'table', 0, '',
     '4f0d647c0a8620b503576ac6c9134dc2d3707f1cb527ca0ff0970aa1d315bed9'),
    ('euler --d 2 --c 24 --order 3 --check', 'json', 0, '',
     '9e61c7089f411b311bb5b4df63f4592761c090241252ada64cfae7b5e26f41cc'),
    ('euler --d 1 --c -3 --order 6', 'table', 0, '',
     '2d045656a57ab2da8df64b424d18f861e88fb9ffd2b2952149daa3b96975da6e'),
    ('euler --d 1 --c -3 --order 6', 'json', 0, '',
     'c50b05bb973fa33c220466dd938f4c58c8128452357d17251d0eab3857b05658'),
    ('dt-check --c -6 --order 16', 'table', 0, '',
     '9160780d5c504b1c6e70039d6782e0de65a7dc60e0eaf55356ff930d2619bc6b'),
    ('dt-check --c -6 --order 16', 'json', 0, '',
     '4a373786d1dea72f6e003d6cd00f67d098a7abc3792a1256e6ec3520ff5b4b0e'),
    # the orders the series benchmark workload runs
    ('euler --d 1 --c -6 --order 60 --check', 'table', 0, '',
     '05341bb508627a46a7feb11e9f742082b8eb201f698eed8099f75b438ec13c85'),
    ('euler --d 1 --c -6 --order 60 --check', 'json', 0, '',
     '856c4a015a0960d0a3391d5966e949a16e87799d33226b780fad8214c448eb07'),
    ('euler --d 2 --c 24 --order 60 --check', 'table', 0, '',
     'cad55fb88b975dab5f8766599ad3532f40de2ce3d17fdc379adee3abdbb383ca'),
    ('euler --d 2 --c 24 --order 60 --check', 'json', 0, '',
     'cf92dc0ef9f3aa102278335cd4ae25eb46ff9801fe8565e05497ee3bce4047e7'),
    ('dt-check --c 5 --order 40', 'table', 0, '',
     '9160780d5c504b1c6e70039d6782e0de65a7dc60e0eaf55356ff930d2619bc6b'),
    ('dt-check --c 5 --order 40', 'json', 0, '',
     '3c389bbf9ddde5bbaf753a01d6cfc112b5f3b762787c803d5d69262afcd7db05'),
    ('hilb-integral --n 0', 'table', 2, 'error: --n must be >= 1\n',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('hilb-integral --n 0', 'json', 2, 'error: --n must be >= 1\n',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('ifunction --n 2 --ch -1', 'table', 2, 'error: --ch must be >= 0\n',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('ifunction --n 2 --ch -1', 'json', 2, 'error: --ch must be >= 0\n',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('euler --d 3 --c 1 --order 4', 'table', 2, 'error: --d must be 1 or 2\n',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('euler --d 3 --c 1 --order 4', 'json', 2, 'error: --d must be 1 or 2\n',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('verify', 'table', 0, '',
     '4b9ac5bd1eb84e14c6814aa9379def8ed8d1bf0d31e4540302beae17d52cc9d0'),
    # one row per rendering branch of a monomial: zero, exponent 0,
    # exponent 1, and the zero u-monomial of a vanishing or polar bracket
    ('hilb-integral --n 5 --ch 1', 'table', 0, '',
     '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    ('hilb-integral --n 5 --ch 1', 'json', 0, '',
     '5c53628448a7c67564e73b93d043d36665d07323e7b7ff7b44461d4b80ff42a4'),
    ('hilb-integral --n 2 --ch 4', 'table', 0, '',
     'eba93cc54db2a74809c6b2e35d23ca287beebbeb68624a258e03dc0604735786'),
    ('hilb-integral --n 2 --ch 4', 'json', 0, '',
     '4fde989bc390f261b268e5aeee35beb5342213d56da4dea738bad8d7905af9b7'),
    ('hilb-integral --n 2 --ch 5', 'table', 0, '',
     '93a3a42eede22d1f567321f19431b296f9b8b66cefab91114a929b3668599926'),
    ('hilb-integral --n 2 --ch 5', 'json', 0, '',
     '8a83f6cca4f7ccb26788ec563e1d259351d7a2e68636e199611db6bd5d04781c'),
    ('ifunction --n 5 --ch 1', 'table', 0, '',
     '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    ('ifunction --n 5 --ch 1', 'json', 0, '',
     '9a6315642cbed87e35a68b2aed4a11f6ebba3fef01c5cf23dff766eee933d095'),
    ('ifunction --n 5 --ch 2', 'table', 0, '',
     '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    ('ifunction --n 5 --ch 2', 'json', 0, '',
     'e2a485162429ec4bd88b7c3169a4abb3885f79b200f426f6ed04c963a522999b'),
    ('ifunction --n 2 --ch 3', 'table', 0, '',
     '442c24880d772e83d402cb5b8b6c58309b41bb90b9781af8739921e0aaa82779'),
    ('ifunction --n 2 --ch 3', 'json', 0, '',
     'e4708d50a95efed59456f4ea69cd6356c8f4ec46a241d82ae3d773ddc0e7ffd0'),
]


@pytest.mark.parametrize("line, fmt, code, err, digest", BYTE_STABLE,
                         ids=[f"{row[0]} ({row[1]})" for row in BYTE_STABLE])
def test_cli_output_is_byte_stable(capsys, line, fmt, code, err, digest):
    got_code, out, got_err = invoke(capsys, *line.split(), "--format", fmt)
    got = (got_code, got_err, hashlib.sha256(out.encode()).hexdigest())
    assert got == (code, err, digest), out
