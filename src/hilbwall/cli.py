"""Command-line front end.

Subcommands: partitions, hilb-integral, ifunction, tn, ch-series, euler,
dt-check, verify.  Output is a human table by default or machine JSON with
``--format json``; JSON keys appear in a fixed order and all rationals are
rendered as exact strings, so identical invocations produce byte-identical
output.  The JSON text is json's indent-2 layout, byte-identical to
``json.dumps(doc, indent=2, ensure_ascii=False)``: :func:`_chunks` lays out
the containers, and json renders every scalar and every empty container.
:func:`_write` sends every output in pieces of 64 KiB, so no process holds a
whole JSON document as one string.
Exit codes: 0 on success, 1 when ``verify`` finds a failing check, 2 on
flag or range errors, on an exactness or localization error, and when the
output cannot be written; each exit 2 prints one ``error: ...`` line on
stderr, and none when stderr is closed.  Stdout stays empty when the error
comes before the output starts; a write that fails partway leaves a prefix
there.  :func:`main`, the console entry, flushes stdout and then freezes
every live object (``gc.freeze``), which the exit-time collections skip.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Optional

from . import __version__
from .exact import ExactError, Monomial
from .fmcalc import tn_integral
from .hilb import enumerate_partitions, hilb_integral
from .ifun import nonpolar_ifunction
from .wallx import ch_series, euler_series_closed, euler_series_wc


# partitions of n grow like exp(pi sqrt(2n/3)): n = 40 has 37,338 and the
# bracket at n = 34 already takes seconds
MAX_N = 40
# bounds --order and tn --n: euler --check takes about 0.5 s at order 200
# and 2.5 s at 400, and tn at n = 10^6 prints a 300,000-digit binomial
MAX_ORDER = 200
# bounds the total ch degree K, the sum of --ch or the one --k: ch-series
# --k K brackets every n <= (K + 2) // 2, so 64 keeps it below MAX_N; at
# n = 40 a cold hilb-integral --ch 64 took 9.2 s, ch-series --k 64 --order
# 200 7.9 s and --k 70 16 s (CPython 3.11, 2 vCPUs)
MAX_K = 64
# bounds |--c| of euler and dt-check: at order 200 the binomials C(c, k) have
# about 200 times the digits of c, and euler --check took 21 s at |c| = 10^300
MAX_C = 10**18


class UsageError(Exception):
    """A flag is missing, malformed or out of range."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's errors as UsageError; subparsers inherit this."""

    def error(self, message):
        raise UsageError(message)

    def _print_message(self, message, file=None):
        # --help and --version print on sys.stdout, and argparse would print
        # on stderr in its place when the process started with stdout closed
        if file is None:
            raise OSError("stdout is closed")
        super()._print_message(message, file)


class _Append(argparse.Action):
    """argparse's append, at most MAX_K times and in place: argparse's own
    copies the list on every flag, so n flags cost n^2.  Every index but 0
    adds at least 1 to K <= MAX_K, so the cap refuses only ch_0 past it."""

    def __call__(self, parser, namespace, value, option_string=None):
        values = getattr(namespace, self.dest) or []
        if len(values) == MAX_K:
            parser.error(f"{option_string} may be given at most {MAX_K} times")
        values.append(value)
        setattr(namespace, self.dest, values)


def _monomial_json(m: Monomial) -> dict:
    return {"variable": m.var,
            "terms": [{"coeff": str(c), "exp": e} for e, c in m.terms.items()]}


def _series_json(s: list) -> dict:
    # coefficients are Monomials or ints; an int renders as a constant monomial
    monomials = [c if isinstance(c, Monomial) else Monomial(c, 0) for c in s]
    return {"variable": "q", "coefficients": [_monomial_json(m)["terms"] for m in monomials]}


def _series_table(s: list) -> str:
    return "\n".join(f"q^{n}: {c}" for n, c in enumerate(s))


# json's own scalar rendering, built once: a json.dumps call per scalar
# would build an encoder each time
_scalar = json.JSONEncoder(ensure_ascii=False).encode


def _chunks(obj, indent: str = "\n", lead: str = ""):
    """obj, of string-keyed dicts, lists, tuples and scalars, as
    json.dumps(obj, indent=2, ensure_ascii=False) renders it, in pieces:
    one string per scalar and one per list of exact ints, each after lead
    or its separator, and one per closing bracket.  With indent set, json
    runs its pure-Python encoder, which collects one string per token,
    71,411 for partitions --n 30, before it joins them."""
    if not obj or not isinstance(obj, (dict, list, tuple)):
        yield lead + _scalar(obj)
        return
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        lead += "{" + inner
        for key, value in obj.items():
            yield from _chunks(value, inner, lead + _scalar(key) + ": ")
            lead = sep
        yield indent + "}"
    # bool is an int subclass that json writes as true or false
    elif set(map(type, obj)) == {int}:
        yield lead + "[" + inner + sep.join(map(str, obj)) + indent + "]"
    else:
        lead += "[" + inner
        for value in obj:
            yield from _chunks(value, inner, lead)
            lead = sep
        yield indent + "]"


# the size of one write: unbuffered, as under PYTHONUNBUFFERED, each write is
# a system call, and one write per chunk would make thousands of them
PIECE = 1 << 16


def _write(out, chunks) -> None:
    """Writes the chunks and a final newline with out.write alone, in pieces
    of PIECE characters and a shorter last one.  A reader of 32 KiB blocks,
    as subprocess's communicate is, then reads whole blocks: pieces a few
    characters longer gave it one short read each, and a process relaying
    ten listings of n = 30 that way peaked 0.4 MB higher (CPython 3.11,
    glibc malloc)."""
    piece, size = [], 0
    for chunk in chunks:
        piece.append(chunk)
        size += len(chunk)
        if size >= PIECE:
            text = "".join(piece)
            for start in range(0, size - PIECE + 1, PIECE):
                out.write(text[start:start + PIECE])
            piece = [text[size - size % PIECE:]]
            size %= PIECE
    piece.append("\n")
    out.write("".join(piece))


def _check_range(flag: str, value: int, least: int, most: int) -> None:
    if value < least:
        raise UsageError(f"{flag} must be >= {least}")
    if value > most:
        raise UsageError(f"{flag} must be <= {most}")


# Each _cmd_* validates its flags, computes, and returns the query fields,
# the JSON result and the table text; run renders one of them.  verify also
# returns its exit code.

def _cmd_partitions(args):
    _check_range("--n", args.n, 0, MAX_N)
    parts = enumerate_partitions(args.n)
    # _chunks writes each partition, a tuple of ints, as a json list in one
    # join; the 5,604 table lines of n = 30 are joined only for --format table
    result = {"count": len(parts), "partitions": parts}
    if args.format == "json":
        return {"n": args.n}, result, ""
    lines = [",".join(map(str, p)) if p else "(empty)" for p in parts]
    return {"n": args.n}, result, "\n".join(lines + [f"count: {len(parts)}"])


def _cmd_bracket(args):
    """hilb-integral and ifunction: build_parser reads args.bracket from the
    module globals when run calls it, so a wrapper put there is called."""
    _check_range("--n", args.n, 1, MAX_N)
    ks = sorted(args.ch or [])
    if ks and ks[0] < 0:
        raise UsageError("--ch must be >= 0")
    if sum(ks) > MAX_K:
        raise UsageError(f"the --ch indices must sum to <= {MAX_K}")
    value = args.bracket(args.n, ks)
    return {"n": args.n, "ch": ks}, _monomial_json(value), str(value)


def _cmd_tn(args):
    _check_range("--n", args.n, 2, MAX_ORDER)
    if args.psi1 < 0 or args.psiinf < 0:
        raise UsageError("--psi1 and --psiinf must be >= 0")
    value = tn_integral(args.n, args.psi1, args.psiinf)
    query = {"n": args.n, "psi1": args.psi1, "psiinf": args.psiinf}
    return query, {"rational": str(value)}, str(value)


def _cmd_ch_series(args):
    if len(args.k) != 1:
        raise UsageError("--k must be given exactly once")
    k, = args.k
    _check_range("--k", k, 0, MAX_K)
    _check_range("--order", args.order, 1, MAX_ORDER)
    series = ch_series(k, args.order)
    query = {"k": k, "order": args.order}
    return query, _series_json(series), _series_table(series)


def _cmd_euler(args):
    if args.d not in (1, 2):
        raise UsageError("--d must be 1 or 2")
    _check_range("--c", args.c, -MAX_C, MAX_C)
    _check_range("--order", args.order, 0, MAX_ORDER)
    wc = euler_series_wc(args.d, args.c, args.order)
    query = {"d": args.d, "c": args.c, "order": args.order, "check": bool(args.check)}
    if not args.check:
        return query, _series_json(wc), _series_table(wc)
    closed = euler_series_closed(args.d, args.c, args.order)
    match = wc == closed
    result = {"wall_crossing": _series_json(wc),
              "closed_form": _series_json(closed),
              "match": match}
    text = ("wall-crossing:\n" + _series_table(wc)
            + "\nclosed form:\n" + _series_table(closed)
            + ("\nMATCH" if match else "\nMISMATCH"))
    return query, result, text


def _cmd_dt_check(args):
    _check_range("--c", args.c, -MAX_C, MAX_C)
    _check_range("--order", args.order, 1, MAX_ORDER)
    wc = euler_series_wc(3, args.c, args.order)
    holds = wc == euler_series_closed(3, args.c, args.order)
    query = {"c": args.c, "order": args.order}
    return query, {"identity_holds": holds}, "MATCH" if holds else "MISMATCH"


def _cmd_verify(args):
    from . import verify  # only this command pays for compiling the checks
    results = []
    for name, check in verify.ALL_CHECKS:
        try:
            passed, detail = check()
        except Exception as exc:  # a raising check fails; the others still run
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    all_passed = all(passed for _, passed, _ in results)
    result = {"passed": all_passed,
              "checks": [{"name": name, "passed": passed, "detail": detail}
                         for name, passed, detail in results]}
    lines = [f"[{i:2d}/{len(results)}] {'PASS' if passed else 'FAIL'}  {name}: {detail}"
             for i, (name, passed, detail) in enumerate(results, 1)]
    lines.append("all checks passed" if all_passed else "SOME CHECKS FAILED")
    return {}, result, "\n".join(lines), 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hilbwall",
        description="Exact equivariant tautological integrals on Hilbert "
                    "schemes of points of the plane, and their wall-crossing "
                    "series.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("partitions", help="list the partitions of n")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_partitions)

    p = sub.add_parser("hilb-integral",
                       help="bracket of ch insertions on the n-point Hilbert scheme")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ch", "--k", dest="ch", type=int, action=_Append,
                   help="a ch index; repeat for multiple insertions")
    common(p)
    p.set_defaults(fn=_cmd_bracket, bracket=hilb_integral)

    p = sub.add_parser("ifunction",
                       help="nonpolar one-end contribution, as a monomial in u = t + z")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ch", "--k", dest="ch", type=int, action=_Append)
    common(p)
    p.set_defaults(fn=_cmd_bracket, bracket=nonpolar_ifunction)

    p = sub.add_parser("tn", help="integral of psi1^a psi_inf^b over the tree locus T_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi1", type=int, required=True)
    p.add_argument("--psiinf", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_tn)

    p = sub.add_parser("ch-series", help="generating series of the ch_k brackets")
    p.add_argument("--k", "--ch", dest="k", type=int, action=_Append, required=True)
    p.add_argument("--order", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_ch_series)

    p = sub.add_parser("euler", help="Euler-characteristic series by wall-crossing")
    p.add_argument("--d", type=int, required=True, help="dimension, 1 or 2")
    p.add_argument("--c", type=int, required=True, help="integer Chern number")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="also compute the closed form and compare")
    common(p)
    p.set_defaults(fn=_cmd_euler)

    p = sub.add_parser("dt-check",
                       help="check the dimension-3 wall-crossing against M(-q)^c")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_dt_check)

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def _error(message: str) -> None:
    """Prints one error line on stderr; nothing when the process started with
    stderr closed, where print(file=None) would write it to stdout."""
    if sys.stderr is not None:
        print(f"error: {message}", file=sys.stderr)


def run(argv: Optional[list[str]] = None) -> int:
    # an exact calculator prints its numbers in full, however many digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        fields, result, text, *code = args.fn(args)
        if args.format == "json":
            doc = {"result": result, "query": {"command": args.command, **fields},
                   "version": __version__}
            chunks = _chunks(doc)
        else:
            chunks = [text]
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write(fh, chunks)
        elif sys.stdout is None:  # started with stdout closed
            raise OSError("stdout is closed")
        else:
            _write(sys.stdout, chunks)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except (UsageError, ExactError) as exc:
        _error(str(exc))
        return 2
    except OSError as exc:
        _error(f"cannot write output: {exc}")
        return 2
    return code[0] if code else 0


def main() -> None:
    code = run()
    try:  # the last piece may still sit in stdout's buffer
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != 2:
            _error(f"cannot write output: {exc}")
            code = 2
        # the exit would flush the rest again, and report it a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # everything alive now dies with the process: frozen, it is left out of
    # the exit-time collections, which walk every tracked object (about 8 ms
    # of a 65 ms cold command); the exit still flushes and runs atexit
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
