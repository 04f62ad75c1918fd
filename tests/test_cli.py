import json

import pytest

from hilbwall.cli import run
from hilbwall.exact import ExactError
from hilbwall.hilb import LocalizationError


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
