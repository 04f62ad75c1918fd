"""Checkers for every operation the benchmark runs, and their self-test.

A checker compares one output with the oracles in :mod:`oracles`, never
with stored output.  Series are compared strictly: exactly order + 1
coefficients, each equal to the oracle's, one at a time.  The printed
``match`` flag of ``euler --check`` is required to be true but proves
nothing by itself.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import oracles

# ch-series coefficients q^1 .. q^SERIES_LOCAL_N are checked against direct
# localization; the later ones against the degree law K - 2n only
SERIES_LOCAL_N = 20


def _terms(coeff: Fraction, exp: int) -> list[dict]:
    return [] if coeff == 0 else [{"coeff": str(coeff), "exp": exp}]


def _bracket_json(n: int, ks) -> dict:
    return {"variable": "t", "terms": _terms(oracles.bracket(n, ks), sum(ks) - 2 * n)}


def _series_errors(series: dict, expected: list, label: str) -> list[str]:
    """Strict comparison of a JSON series with expected term lists, or predicates on them."""
    if series.get("variable") != "q":
        return [f"{label}: variable is {series.get('variable')!r}, not 'q'"]
    got = series.get("coefficients")
    if not isinstance(got, list) or len(got) != len(expected):
        n = len(got) if isinstance(got, list) else None
        return [f"{label}: {n} coefficients, expected {len(expected)}"]
    errors = []
    for n, (g, want) in enumerate(zip(got, expected)):
        ok = g == want if not callable(want) else want(g)
        if not ok:
            errors.append(f"{label}: q^{n} is {json.dumps(g)[:120]}")
    return errors


def _rational_series(values: list[Fraction]) -> list[list[dict]]:
    return [_terms(v, 0) for v in values]


def _degree_law(exp: int):
    """A coefficient that is zero or one nonzero rational times t^exp."""
    def ok(g) -> bool:
        if g == []:
            return True
        if not (isinstance(g, list) and len(g) == 1 and g[0].get("exp") == exp):
            return False
        try:
            return Fraction(g[0]["coeff"]) != 0 and str(Fraction(g[0]["coeff"])) == g[0]["coeff"]
        except (KeyError, ValueError, TypeError, ZeroDivisionError):
            return False
    return ok


def expected_query(op: dict) -> dict:
    kind = op["kind"]
    if kind == "hilb-integral":
        return {"command": kind, "n": op["n"], "ch": sorted(op["ks"])}
    if kind == "euler":
        return {"command": kind, "d": op["d"], "c": op["c"], "order": op["order"], "check": True}
    if kind == "dt-check":
        return {"command": kind, "c": op["c"], "order": op["order"]}
    if kind == "ch-series":
        return {"command": kind, "k": op["k"], "order": op["order"]}
    if kind == "partitions":
        return {"command": kind, "n": op["n"]}
    raise ValueError(kind)


def check_result(op: dict, result) -> list[str]:
    """Errors in the ``result`` part of a CLI document for ``op``."""
    kind = op["kind"]
    if kind == "hilb-integral":
        want = _bracket_json(op["n"], op["ks"])
        return [] if result == want else [f"<{op['ks']}>_{op['n']}: got {result}, want {want}"]
    if kind == "euler":
        values = (oracles.macdonald if op["d"] == 1 else oracles.goettsche)(op["c"], op["order"])
        want = _rational_series(values)
        errors = []
        for key in ("wall_crossing", "closed_form"):
            errors += _series_errors(result.get(key, {}), want, f"euler d={op['d']} {key}")
        if result.get("match") is not True:
            errors.append("euler: match flag is not true")
        return errors
    if kind == "dt-check":
        return [] if result == {"identity_holds": True} else [f"dt-check: {result}"]
    if kind == "ch-series":
        k = op["k"]
        want = [[]] + [_terms(oracles.local_bracket(n, (k,)), k - 2 * n)
                       if n <= SERIES_LOCAL_N else _degree_law(k - 2 * n)
                       for n in range(1, op["order"] + 1)]
        return _series_errors(result, want, f"ch-series k={k}")
    if kind == "partitions":
        n = op["n"]
        count = oracles.partition_counts(n)[n]
        parts = result.get("partitions")
        if result.get("count") != count or not isinstance(parts, list) or len(parts) != count:
            return [f"partitions: count {result.get('count')}, expected {count}"]
        seen = set()
        for p in parts:
            t = tuple(p)
            if (sum(t) != n or any(x <= 0 for x in t)
                    or any(t[i] < t[i + 1] for i in range(len(t) - 1)) or t in seen):
                return [f"partitions: invalid or repeated entry {p}"]
            seen.add(t)
        return []
    raise ValueError(kind)


def judge_cli(op: dict, code: int, out: bytes, err: bytes) -> tuple[bool, list[str]]:
    """(failed, errors) for one CLI invocation.

    The --out operation into a missing directory passes only when it exits 2
    with a one-line diagnostic on stderr and nothing on stdout.  Any other
    operation fails when it exits nonzero; when it succeeds, its JSON
    document must echo the query and carry the oracle's result.
    """
    if op["kind"] == "out-missing-dir":
        lines = err.decode(errors="replace").strip().splitlines()
        return not (code == 2 and not out and len(lines) == 1), []
    if code != 0:
        return True, []
    try:
        doc = json.loads(out)
    except ValueError:
        return False, [f"{op['kind']}: output is not JSON"]
    if not isinstance(doc, dict) or list(doc) != ["result", "query", "version"]:
        return False, [f"{op['kind']}: document keys are not result, query, version"]
    errors = []
    if doc["query"] != expected_query(op):
        errors.append(f"{op['kind']}: query echo {doc['query']}")
    try:
        errors += check_result(op, doc["result"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        errors.append(f"{op['kind']}: malformed result ({exc!r})")
    return False, errors


def check_batch(n: int, ks: list[int], bracket_terms, one_end) -> list[str]:
    """A bracket from the library and its nonpolar one-end contribution.

    ``bracket_terms`` is the bracket's [[coeff, exp], ...] list and
    ``one_end`` is [coeff, exp] or None for a zero contribution.
    """
    coeff = oracles.bracket(n, ks)
    want = [[str(coeff), sum(ks) - 2 * n]] if coeff else []
    errors = []
    if bracket_terms != want:
        errors.append(f"<{ks}>_{n}: got {bracket_terms}, want {want}")
    end = oracles.one_end(n, ks, coeff)
    want_end = None if end is None else [str(end[0]), end[1]]
    if one_end != want_end:
        errors.append(f"one-end <{ks}>_{n}: got {one_end}, want {want_end}")
    return errors


# ---------------------------------------------------------------------------
# self-test: each checker must accept the oracle's answer and reject wrong ones


def _document(op: dict) -> dict:
    """The CLI document the oracles predict for ``op``."""
    kind = op["kind"]
    if kind == "hilb-integral":
        result = _bracket_json(op["n"], op["ks"])
    elif kind == "euler":
        values = (oracles.macdonald if op["d"] == 1 else oracles.goettsche)(op["c"], op["order"])
        series = {"variable": "q", "coefficients": _rational_series(values)}
        result = {"wall_crossing": series, "closed_form": copy.deepcopy(series), "match": True}
    elif kind == "dt-check":
        result = {"identity_holds": True}
    elif kind == "ch-series":
        k = op["k"]
        result = {"variable": "q", "coefficients": [[]] + [
            _terms(oracles.local_bracket(n, (k,)), k - 2 * n) for n in range(1, op["order"] + 1)]}
    else:
        n = op["n"]
        result = {"count": oracles.partition_counts(n)[n],
                  "partitions": [list(p) for p in oracles.partitions(n)]}
    return {"result": result, "query": expected_query(op), "version": "0"}


def _nonzero_terms(doc: dict) -> list[dict]:
    """Every term dict of a document's result, in a fixed order."""
    found = []

    def walk(x):
        if isinstance(x, dict):
            if "coeff" in x and Fraction(x["coeff"]) != 0:
                found.append(x)
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
    walk(doc["result"])
    return found


def _mutations(doc: dict):
    """(name, wrong document): a coefficient changed, a sign flipped, the last
    series coefficient (or partition) dropped, the query or a flag altered."""
    terms = _nonzero_terms(doc)
    if terms:
        for name, fn in (("coefficient changed", lambda c: c + 1), ("sign flipped", lambda c: -c)):
            wrong = copy.deepcopy(doc)
            target = _nonzero_terms(wrong)[len(terms) // 2]
            target["coeff"] = str(fn(Fraction(target["coeff"])))
            yield name, wrong
    result = doc["result"]
    series_keys = [None] if "coefficients" in result else [
        k for k in ("wall_crossing", "closed_form") if k in result]
    for key in series_keys:
        wrong = copy.deepcopy(doc)
        target = wrong["result"] if key is None else wrong["result"][key]
        target["coefficients"].pop()
        yield "last series coefficient dropped", wrong
    if "partitions" in result:
        wrong = copy.deepcopy(doc)
        wrong["result"]["partitions"].pop()
        yield "last partition dropped", wrong
        wrong = copy.deepcopy(wrong)
        wrong["result"]["count"] -= 1
        yield "count lowered with the list", wrong
    for key in ("identity_holds", "match"):
        if key in result:
            wrong = copy.deepcopy(doc)
            wrong["result"][key] = False
            yield f"{key} flipped", wrong
    wrong = copy.deepcopy(doc)
    wrong["query"]["command"] = "other"
    yield "query echo changed", wrong
    wrong = copy.deepcopy(doc)
    wrong["result"] = [wrong["result"]]
    yield "result malformed", wrong


SELF_TEST_OPS = (
    {"kind": "hilb-integral", "n": 5, "ks": [4, 0]},
    {"kind": "hilb-integral", "n": 4, "ks": []},
    {"kind": "euler", "d": 1, "c": -5, "order": 8},
    {"kind": "euler", "d": 2, "c": 24, "order": 8},
    {"kind": "dt-check", "c": -5, "order": 8},
    {"kind": "ch-series", "k": 10, "order": 8},
    {"kind": "partitions", "n": 6},
)


def self_test() -> list[str]:
    """Failures of the oracles' self-check and of every checker's self-test."""
    problems = oracles.self_check()
    for op in SELF_TEST_OPS:
        doc = _document(op)
        failed, errors = judge_cli(op, 0, json.dumps(doc).encode(), b"")
        if failed or errors:
            problems.append(f"{op}: right answer rejected: {errors}")
        for name, wrong in _mutations(doc):
            failed, errors = judge_cli(op, 0, json.dumps(wrong).encode(), b"")
            if not errors:
                problems.append(f"{op}: {name} was accepted")
    law = _degree_law(-33)
    if (not law([]) or not law([{"coeff": "2/3", "exp": -33}])
            or law([{"coeff": "2/3", "exp": -31}]) or law([{"coeff": "0", "exp": -33}])):
        problems.append("degree-law check accepts a wrong term or rejects a right one")
    out_op = {"kind": "out-missing-dir"}
    if judge_cli(out_op, 2, b"", b"error: cannot write missing-dir/out.json\n")[0]:
        problems.append("--out check rejects exit 2 with a one-line diagnostic")
    for code, err in ((1, b"Traceback (most recent call last):\n  ...\nFileNotFoundError\n"),
                      (2, b"error: one\nerror: two\n"), (0, b"")):
        if not judge_cli(out_op, code, b"", err)[0]:
            problems.append(f"--out check accepts exit {code} with stderr {err[:30]!r}")
    if judge_cli({"kind": "dt-check", "c": 1, "order": 5}, 1, b"", b"boom")[0] is not True:
        problems.append("a nonzero exit of an ordinary command is not counted as failed")
    good_end = check_batch(2, [4], [["-1/16", 0]], ["-1/16", 2])
    wrong_ends = (check_batch(2, [4], [["1/16", 0]], ["-1/16", 2]),
                  check_batch(2, [4], [["-1/16", 0]], ["1/16", 2]),
                  check_batch(2, [4], [["-1/16", 0]], ["-1/16", 3]),
                  check_batch(2, [4], [["-1/16", 0]], None),
                  check_batch(3, [2], [["-1/4", -4]], ["-1/4", -2]),
                  check_batch(3, [2], [["-1/5", -4]], None))
    if good_end or not all(wrong_ends):
        problems.append("batch checker accepts a wrong bracket or one-end value, "
                        "or rejects a right one")
    return problems
