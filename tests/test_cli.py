import hashlib
import json
import sys
import time
from fractions import Fraction

import pytest

from hilbwall import verify
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
    ["euler", "--d", "2", "--c", str(10**18 + 1), "--order", "4", "--check"],
    ["dt-check", "--c", str(-(10**18 + 1)), "--order", "4"],
    ["dt-check", "--c", "1", "--order", "0"],
], ids=["bad-int", "missing-flag", "no-command", "unknown-command", "bad-choice",
        "repeated-k", "repeated-k-alias", "partitions-n-too-large",
        "hilb-n-too-large", "ch-series-order-too-large", "euler-order-too-large",
        "dt-check-order-too-large", "tn-n-too-large", "euler-c-too-large",
        "dt-check-c-too-small", "dt-check-order-too-small"])
def test_flag_error_prints_one_line(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_long_exact_values_print_in_full(monkeypatch, capsys):
    # the coefficient has more digits than CPython's default int-to-str
    # limit; under the bound on K no command computes one (euler at |c| =
    # 10^18 and order 200 prints 3,226 digits), so the bracket is planted
    from hilbwall import cli as climod
    long = hilb_integral(3, [2000])
    monkeypatch.setattr(climod, "hilb_integral", lambda n, ks: long)
    code, out, err = invoke(capsys, "hilb-integral", "--n", "3", "--ch", "2",
                            "--format", "json")
    assert code == 0 and err == ""
    (term,) = json.loads(out)["result"]["terms"]
    assert len(term["coeff"]) > 4300
    assert Monomial(Fraction(term["coeff"]), term["exp"]) == long


def test_verify_cli_wiring_pass(monkeypatch, capsys):
    monkeypatch.setattr(verify, "ALL_CHECKS", [("alpha", lambda: (True, "fine"))])
    code, out, _ = invoke(capsys, "verify")
    assert code == 0
    assert "PASS" in out and "all checks passed" in out


def test_verify_cli_wiring_fail(monkeypatch, capsys):
    monkeypatch.setattr(verify, "ALL_CHECKS", [("alpha", lambda: (True, "fine")),
                                              ("beta", lambda: (False, "broken"))])
    code, out, _ = invoke(capsys, "verify")
    assert code == 1
    assert "FAIL" in out and "SOME CHECKS FAILED" in out


def test_verify_reports_every_check_when_one_raises(monkeypatch, capsys):
    def raising():
        raise LocalizationError("residual eps pole")
    checks = list(verify.ALL_CHECKS)
    index = [check for _, check in checks].index(verify.check_property_suites)
    name = checks[index][0]
    checks[index] = (name, raising)
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)
    code, out, err = invoke(capsys, "verify")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert len(lines) == len(checks) + 1 and lines[-1] == "SOME CHECKS FAILED"
    assert [line for line in lines if "FAIL " in line] == [
        f"[{index + 1:2d}/{len(checks)}] FAIL  {name}: LocalizationError: residual eps pole"]


def test_verify_cli_json_shape(monkeypatch, capsys):
    monkeypatch.setattr(verify, "ALL_CHECKS", [("alpha", lambda: (True, "fine"))])
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


def test_closed_stdout_exits_2_with_one_line(monkeypatch, capsys):
    # a process started with stdout closed has sys.stdout set to None
    monkeypatch.setattr(sys, "stdout", None)
    code = run(["partitions", "--n", "3"])
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write output: stdout is closed\n"


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
    # the bound on K keeps every seed, n <= (k + 2) // 2, at or below MAX_N
    assert (climod.MAX_K + 2) // 2 <= climod.MAX_N
    code, out, err = invoke(capsys, "ch-series", "--k", "200", "--order", "45")
    assert (code, out, err) == (2, "", f"error: --k must be <= {climod.MAX_K}\n")
    # at the bound the command still reaches ch_series
    with pytest.raises(AssertionError, match="must not run"):
        run(["ch-series", "--k", str(climod.MAX_K), "--order", "200"])


@pytest.mark.parametrize("argv, err", [
    (["hilb-integral", "--n", "40", "--ch", "65"], "the --ch indices must sum to <= 64"),
    (["hilb-integral", "--n", "3", "--ch", str(10**21)], "the --ch indices must sum to <= 64"),
    (["ifunction", "--n", "40", "--ch", "30", "--ch", "35"], "the --ch indices must sum to <= 64"),
    (["ch-series", "--k", "65", "--order", "200"], "--k must be <= 64"),
], ids=["hilb-integral", "hilb-integral-huge", "ifunction", "ch-series"])
def test_total_ch_degree_above_the_bound_exits_2_at_once(capsys, argv, err):
    # just over the bound these ran for seconds, and --ch 10^21 did not end
    start = time.perf_counter()
    got = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert got == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("flags", [65, 5000])
@pytest.mark.parametrize("command, flag", [
    (["hilb-integral", "--n", "3"], "--ch"),
    (["ifunction", "--n", "3"], "--ch"),
    (["ch-series", "--order", "3"], "--k"),
], ids=["hilb-integral", "ifunction", "ch-series"])
def test_more_than_max_k_insertions_exit_2_at_once(capsys, command, flag, flags):
    # ch_0 adds nothing to K, so only the count of flags bounds it; flags
    # past the cap must cost nothing, however many follow
    start = time.perf_counter()
    got = invoke(capsys, *command, *[flag, "0"] * flags)
    assert time.perf_counter() - start < 0.5
    assert got == (2, "", f"error: {flag} may be given at most 64 times\n")


def test_max_k_ch_0_insertions_are_accepted(capsys):
    got = invoke(capsys, "hilb-integral", "--n", "3", *["--ch", "0"] * 64)
    assert got == (0, f"{hilb_integral(3, [0] * 64)}\n", "")


def test_json_renderer_is_json_layout():
    from hilbwall.cli import _chunks
    doc = {"empty": [[], {}, {"deep": [[], {"deeper": {}}]}],
           "nested": {"list": [(1, 2), {"a": 1, "b": ()}]},
           # bool is an int subclass that json writes as true, not True
           "bools": [1, True], "scalars": [True, None, 1.5],
           "digits": [-10**39, 7], "long": -10**39,
           "text": 'a "quote", a \\ backslash,\na newline and ≤'}
    assert "".join(_chunks(doc)) == json.dumps(doc, indent=2, ensure_ascii=False)


def test_large_listing_allocates_little_beyond_its_output(monkeypatch):
    import tracemalloc

    class Sink:  # counts what is written and keeps none of it
        written = 0

        def write(self, text):
            self.written += len(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert run(["partitions", "--n", "30", "--format", "json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # json.dumps(indent=2) peaked at 8.4 times: its pure-Python encoder
    # collects 71,411 chunks for these 692,802 characters.  One string per
    # container, joined and written whole, peaked at 3.7 times; written in
    # 64 KiB pieces, at 1.6 times
    assert sink.written == 692802 and peak <= 2 * sink.written


def test_listing_goes_out_in_whole_pieces(monkeypatch):
    # a reader of 32 KiB blocks, as subprocess's communicate is, then reads
    # whole blocks; pieces a few characters longer gave it a short read each
    sizes = []

    class Sink:
        def write(self, text):
            sizes.append(len(text))

    monkeypatch.setattr(sys, "stdout", Sink())
    assert run(["partitions", "--n", "30", "--format", "json"]) == 0
    assert sum(sizes) == 692802 and set(sizes[:-1]) == {1 << 16}


def test_reader_gone_midway_exits_2_with_one_line(monkeypatch, capsys):
    class ClosingSink:  # a reader that takes the first piece, then closes the pipe
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes == 2:
                raise BrokenPipeError(32, "Broken pipe")

    sink = ClosingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    code = run(["partitions", "--n", "30", "--format", "json"])
    err = capsys.readouterr().err
    assert code == 2 and sink.writes == 2
    assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_real_pipe_closed_early_exits_2_with_one_line(unbuffered):
    # the listing is ten times the pipe's buffer, so the reader leaves while
    # the command still writes; buffered, the rest of a piece would wait in
    # stdout's buffer, and the exit would flush it and fail a second time
    import os
    import subprocess
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.Popen(
        [sys.executable, "-m", "hilbwall.cli", "partitions", "--n", "30", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.read(100).startswith(b'{\n  "result"')
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 2
    assert err == b"error: cannot write output: [Errno 32] Broken pipe\n"


def test_closed_stderr_leaves_stdout_empty(capsys, monkeypatch):
    # a process started with stderr closed has sys.stderr set to None, and
    # print(file=None) writes to stdout
    monkeypatch.setattr(sys, "stderr", None)
    code = run(["hilb-integral", "--n", "0", "--format", "json"])
    assert code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_help_and_version_with_stdout_closed_exit_2(capsys, monkeypatch, flag):
    # left to itself, argparse prints their text on stderr in place of a
    # closed stdout and exits 0; every subcommand exits 2 with one error line
    import os
    import subprocess
    monkeypatch.setattr(sys, "stdout", None)
    assert run([flag]) == 2
    assert capsys.readouterr() == ("", "error: cannot write output: stdout is closed\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-m", "hilbwall.cli", flag], stderr=subprocess.PIPE,
                           env=env, timeout=60, preexec_fn=lambda: os.close(1))
    assert (child.returncode, child.stderr) == (
        2, b"error: cannot write output: stdout is closed\n")


# one command per way out of main: argparse's own exit, a table and a JSON
# listing, a bracket on the list path, a range error and an unwritable --out
@pytest.mark.parametrize("argv", [
    ["--version"],
    ["partitions", "--n", "4"],
    ["partitions", "--n", "4", "--format", "json"],
    ["hilb-integral", "--n", "14", "--ch", "3", "--ch", "4", "--format", "json"],
    ["euler", "--d", "3", "--c", "1", "--order", "4"],
    ["partitions", "--n", "4", "--out", "{tmp}/missing-dir/out.txt"],
], ids=["version", "table", "json", "list-path", "range-error", "unwritable-out"])
def test_cli_process_matches_run(capsys, tmp_path, argv):
    import os
    import subprocess
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = invoke(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-m", "hilbwall.cli", *argv],
                           capture_output=True, env=env, timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (code, out.encode(), err.encode())


@pytest.mark.parametrize("code, broken, want", [(0, False, 0), (1, False, 1), (2, False, 2),
                                                (0, True, 2)],
                         ids=["exit-0", "exit-1", "exit-2", "flush-fails"])
def test_main_freezes_once_after_the_flush(capsys, monkeypatch, tmp_path, code, broken, want):
    import gc
    import os
    from hilbwall import cli as climod
    events = []
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class Stdout:
        def flush(self):
            events.append("flush")
            if broken:
                raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd
    monkeypatch.setattr(climod, "run", lambda: events.append("run") or code)
    monkeypatch.setattr(sys, "stdout", Stdout())
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    try:
        with pytest.raises(SystemExit) as exit_:
            climod.main()
    finally:
        os.close(fd)
    assert events == ["run", "flush", "freeze"] and exit_.value.code == want
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 32] Broken pipe\n" if broken else "")


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
    # multi-digit parts 10, 11 and 12
    ('partitions --n 12', 'table', 0, '',
     'de3808e5b7dc9adabbc2d6c84b0fcbb4f2a9fc1fd14ef32d5e13098124e2e7f9'),
    ('partitions --n 12', 'json', 0, '',
     '6645b7bc96c6ffc657a11e1e85db8e1a3bc1f75afb6fceac72149107ceb53818'),
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
    # the series workload's partitions operation, the largest listing pinned
    ('partitions --n 30', 'json', 0, '',
     '7839402a89c668c963edd50b101c3c56e4c8bd421153ec3e49e4c111e15c6d1c'),
    # the orders the series benchmark workload runs
    ('euler --d 1 --c -6 --order 60 --check', 'table', 0, '',
     '05341bb508627a46a7feb11e9f742082b8eb201f698eed8099f75b438ec13c85'),
    ('euler --d 1 --c -6 --order 60 --check', 'json', 0, '',
     '856c4a015a0960d0a3391d5966e949a16e87799d33226b780fad8214c448eb07'),
    ('euler --d 2 --c 24 --order 60 --check', 'table', 0, '',
     'cad55fb88b975dab5f8766599ad3532f40de2ce3d17fdc379adee3abdbb383ca'),
    ('euler --d 2 --c 24 --order 60 --check', 'json', 0, '',
     'cf92dc0ef9f3aa102278335cd4ae25eb46ff9801fe8565e05497ee3bce4047e7'),
    # the integer closed form at the largest |c| and a long order
    ('euler --d 2 --c -1000000000000000000 --order 100 --check', 'table', 0, '',
     'f65ce520fdc3a416aa9ee5d03d5e51e2fc798ab381d3f16a1e6d42bc5af01c4e'),
    ('euler --d 2 --c -1000000000000000000 --order 100 --check', 'json', 0, '',
     'f37be26ac8b9b588bf93b0fda360a8c487cb74222c8d11010b1f4dd6aff36542'),
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
     '829b79dc6a40d1ab77f5fd9f68283293e8fd3af906a8f97c198dbe9c88667a68'),
    # the only JSON output with free-text detail strings
    ('verify', 'json', 0, '',
     'e5387fc6ac99ae7d74e25f7b581dbc789dd411899abe20e45483d65f75466b4a'),
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
