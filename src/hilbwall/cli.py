"""Command-line front end.

Subcommands: partitions, hilb-integral, ifunction, tn, ch-series, euler,
dt-check, verify.  Output is a human table by default or machine JSON with
``--format json``; JSON keys appear in a fixed order and all rationals are
rendered as exact strings, so identical invocations produce byte-identical
output.  Exit codes: 0 on success, 1 when ``verify`` finds a failing check,
2 on flag or range errors, on an exactness or localization error, and when
the output cannot be written; each exit 2 prints one ``error: ...`` line on
stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .exact import ExactError, Monomial
from .fmcalc import tn_integral
from .hilb import enumerate_partitions, hilb_integral
from .ifun import nonpolar_ifunction
from .verify import run_all_checks
from .wallx import ch_series, dt_identity_check, euler_series_closed, euler_series_wc


# partitions of n grow like exp(pi sqrt(2n/3)): n = 40 has 37,338 and the
# bracket at n = 34 already takes seconds
MAX_N = 40
# bounds --order and tn --n: euler --check takes about 0.5 s at order 200
# and 2.5 s at 400, and tn at n = 10^6 prints a 300,000-digit binomial
MAX_ORDER = 200


class UsageError(Exception):
    """A flag is missing, malformed or out of range."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's errors as UsageError; subparsers inherit this."""

    def error(self, message):
        raise UsageError(message)


def _monomial_json(m: Monomial) -> dict:
    return {"variable": m.var,
            "terms": [{"coeff": str(c), "exp": e} for e, c in m.terms.items()]}


def _series_json(s: list) -> dict:
    # a rational coefficient renders as a constant monomial
    monomials = [c if isinstance(c, Monomial) else Monomial(c, 0) for c in s]
    return {"variable": "q", "coefficients": [_monomial_json(m)["terms"] for m in monomials]}


def _series_table(s: list) -> str:
    return "\n".join(f"q^{n}: {c}" for n, c in enumerate(s))


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
    result = {"count": len(parts), "partitions": [list(p) for p in parts]}
    lines = [",".join(str(x) for x in p) if p else "(empty)" for p in parts]
    return {"n": args.n}, result, "\n".join(lines + [f"count: {len(parts)}"])


def _bracket_flags(args) -> list[int]:
    """Validate the --n and --ch flags of hilb-integral and ifunction."""
    _check_range("--n", args.n, 1, MAX_N)
    ks = sorted(args.ch or [])
    if any(k < 0 for k in ks):
        raise UsageError("--ch must be >= 0")
    return ks


def _cmd_hilb_integral(args):
    ks = _bracket_flags(args)
    value = hilb_integral(args.n, ks)
    return {"n": args.n, "ch": ks}, _monomial_json(value), str(value)


def _cmd_ifunction(args):
    ks = _bracket_flags(args)
    value = nonpolar_ifunction(args.n, ks)
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
    if k < 0:
        raise UsageError("--k must be >= 0")
    _check_range("--order", args.order, 1, MAX_ORDER)
    # ch_series brackets every n of its nonpolar seed range, 2n <= k + 2
    top = min((k + 2) // 2, args.order)
    if top > MAX_N:
        raise UsageError(f"--k and --order need brackets up to n = {top} > {MAX_N}")
    series = ch_series(k, args.order)
    query = {"k": k, "order": args.order}
    return query, _series_json(series), _series_table(series)


def _cmd_euler(args):
    if args.d not in (1, 2):
        raise UsageError("--d must be 1 or 2")
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
    _check_range("--order", args.order, 1, MAX_ORDER)
    holds = dt_identity_check(args.c, args.order)
    query = {"c": args.c, "order": args.order}
    return query, {"identity_holds": holds}, "MATCH" if holds else "MISMATCH"


def _cmd_verify(args):
    results = run_all_checks()
    all_passed = all(r.passed for r in results)
    result = {"passed": all_passed,
              "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                         for r in results]}
    lines = [f"[{i:2d}/{len(results)}] {'PASS' if r.passed else 'FAIL'}  "
             f"{r.name}: {r.detail}" for i, r in enumerate(results, 1)]
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
    p.add_argument("--ch", "--k", dest="ch", type=int, action="append",
                   help="a ch index; repeat for multiple insertions")
    common(p)
    p.set_defaults(fn=_cmd_hilb_integral)

    p = sub.add_parser("ifunction",
                       help="nonpolar one-end contribution, as a monomial in u = t + z")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ch", "--k", dest="ch", type=int, action="append")
    common(p)
    p.set_defaults(fn=_cmd_ifunction)

    p = sub.add_parser("tn", help="integral of psi1^a psi_inf^b over the tree locus T_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi1", type=int, required=True)
    p.add_argument("--psiinf", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_tn)

    p = sub.add_parser("ch-series", help="generating series of the ch_k brackets")
    p.add_argument("--k", "--ch", dest="k", type=int, action="append", required=True)
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
                       help="check the MacMahon substitution identity in dimension 3")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_dt_check)

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    # an exact calculator prints its numbers in full, however many digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        fields, result, text, *code = args.fn(args)
        if args.format == "json":
            doc = {"result": result, "query": {"command": args.command, **fields},
                   "version": __version__}
            text = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        else:
            text += "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (UsageError, ExactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code[0] if code else 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
