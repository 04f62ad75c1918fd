"""Mutation sweep: plausible one-line bugs in src/ that a check must catch.

Each entry of ``EDITS`` is ``(file, old, new, catcher)``: a one-line edit
of a file under src/hilbwall (``old`` reaches into the next line where
the line alone is not unique) and the first check that must fail on it,
one of ``CATCHERS``: the ``verify`` command, ``tools/differential.py`` or
the Tier-1 suite.  ``EQUIVALENT`` holds edits that change no result, each
with its reason.  The sweep copies src/, tests/, tools/ and pyproject.toml
into a temporary directory, applies one edit to a fresh copy at a time and
runs the catcher there, one process at a time.

Exits 1 when an ``old`` does not occur exactly once in its file, when a
catcher fails on the unedited copy, when an edit's catcher passes, or when
any catcher fails on an ``EQUIVALENT`` edit (the edit is caught after all,
so it belongs in ``EDITS``); exits 0 otherwise.  Takes three to seven
minutes on 2 vCPUs (6 min 15 s for 47 edits).  Run from the root of a
checkout:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "pyproject.toml")

CATCHERS = {
    "verify": [sys.executable, "-m", "hilbwall.cli", "verify"],
    "differential": [sys.executable, "tools/differential.py"],
    "tier1": [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
}

HILB = "src/hilbwall/hilb.py"
CLI = "src/hilbwall/cli.py"
EXACT = "src/hilbwall/exact.py"
IFUN = "src/hilbwall/ifun.py"
WALLX = "src/hilbwall/wallx.py"
FMCALC = "src/hilbwall/fmcalc.py"
VERIFY = "src/hilbwall/verify.py"
EDITS = [
    # the packed base about one word too narrow for the bound
    (HILB, "bits = -(-(bound.bit_length() + 2) // 64) * 64",
     "bits = -(-(bound.bit_length() - 60) // 64) * 64", "verify"),
    # the eps^0 coefficient read one digit low, from the eps^-1 digit (and
    # from a negative shift at width 1)
    (HILB, "top = bits * (width - 1)", "top = bits * (width - 2)", "verify"),
    # the first insertion's norm left out of the bound
    (HILB, "    for _, norm in chs:", "    for _, norm in chs[1:]:", "verify"),
    # the rank factor n applied only for two or more ch_0
    (HILB, "if zeros else v", "if zeros > 1 else v", "verify"),
    # the ch lists cut one power of eps short
    (HILB, "ch = [0] * (min(k, len(inv) - 1) + 1)",
     "ch = [0] * min(k, len(inv) - 1)", "verify"),
    # a pole of eps^-2 let through on the list path: no regular bracket has
    # one, so only the planted-fault tests see it
    (HILB, "any(totals[1:])", "any(totals[2:])", "tier1"),
    # the same on the packed path: the check leaves out the eps^-2 digit
    (HILB, "for j in range(width - 3, -1, -2)", "for j in range(width - 5, -1, -2)",
     "tier1"),
    # the check leaves out its lowest digit, eps^-4 at width 5: only the
    # planted rows at n = 8 reach it
    (HILB, "for j in range(width - 3, -1, -2)", "for j in range(width - 3, 0, -2)",
     "tier1"),
    # on the list path a product of two ch lists cut one power of eps
    # short, which loses its eps^P term: verify has no bracket of two
    # insertions on the list path, the differential's large ones are
    (HILB, "_mul_trunc(c, ch, len(inv))", "_mul_trunc(c, ch, len(inv) - 1)",
     "differential"),
    # the list path's read-out leaves out the product's eps^0 power: the
    # whole value of a row without poles, a staircase such as (5, 4, 3, 2, 1)
    (HILB, "enumerate(range(len(inv) - 1, -1, -2))",
     "enumerate(range(len(inv) - 1, 0, -2))", "verify"),
    # one pole too many at every fixed point: each inverse Euler list runs
    # one power of eps further than the row has poles
    (HILB, "if a + b == 0) + 1", "if a + b == 0) + 2", "verify"),
    # the rank factor n applied once too few times
    (HILB, "Fraction(c.numerator * n ** zeros, c.denominator)",
     "Fraction(c.numerator * n ** (zeros - 1), c.denominator)", "verify"),
    # a zero monomial keeps its degree, so zeros of two degrees differ
    (EXACT, "exp if coeff else 0", "exp", "verify"),
    # an int coefficient kept as an int: it equals its Fraction, so only
    # Tier-1's type checks see it
    (EXACT, "coeff = Fraction(coeff)", "coeff = coeff", "tier1"),
    # the nonpolar threshold one too high: the one-end contribution u^0
    # counted as polar, without a bracket
    (IFUN, "if sum(ks) < 2 * n - 2:", "if sum(ks) < 2 * n - 1:", "verify"),
    # the other member of each transpose pair kept: its row at -eps has the
    # same even part, so no value changes, only the rows the tests pin
    (HILB, "if parts >= conjugate(parts)]", "if parts <= conjugate(parts)]", "tier1"),
    # every table packed: no value changes, only the path the tests pin
    (HILB, "if bits * width <= PACKED_MAX_BITS:", "if bits * width <= 10**9:",
     "tier1"),
    # a memo that keeps nothing: every value stays right, so only the
    # tests of the memo see it (the decorator alone is not unique)
    (HILB, "maxsize=None)\ndef _bracket", "maxsize=0)\ndef _bracket", "tier1"),
    # the wall-crossing sum stopped at the first C(c, k) that is not
    # positive, which at c < 0 is the first one
    (WALLX, "if binom == 0:", "if binom <= 0:", "verify"),
    # the FM side's sign (-1)^(dk) read as (-1)^k: every C(c, k) of odd k
    # flips its sign in dimension two
    (WALLX, "(-1) ** (d * k)", "(-1) ** k", "verify"),
    # the last tree locus left out of each ch_k seed's sum
    (WALLX, "range(max(2, (a + 4) // 2), q_order - n + 2)",
     "range(max(2, (a + 4) // 2), q_order - n + 1)", "verify"),
    # the seed degree test compares the seed with itself: every real seed has
    # the right degree, so only the planted shifted seeds see it
    (WALLX, "if a != k - 2 * n + 2:", "if a != seed.exp:", "tier1"),
    # the tree-locus sign read from floor(a/2) instead of ceil(a/2)
    (FMCALC, "(-1) ** ((a + 1) // 2)", "(-1) ** (a // 2)", "verify"),
    # each dilaton factor c_d - m taken as c_d - m - 1
    (FMCALC, "lower - m * same", "lower - (m + 1) * same", "verify"),
    # the Euler checks compare two series that are equally short: only the
    # planted truncation sees it
    (VERIFY, "if len(wc) != 21 or len(closed) != 21:", "if len(wc) != len(closed):",
     "tier1"),
    # check 12 counts the wall terms with k slots in place of k + 1
    (VERIFY, "(k + 1) ** m for k", "k ** m for k", "verify"),
    # check 12 counts the compositions of n + 1 into j parts
    (VERIFY, "comb(n - 1, j - 1)", "comb(n, j - 1)", "verify"),
    # check 12 counts the distinct terms only: a repeated term passes, and
    # only the planted repeat sees it
    (VERIFY, "len(terms) == len(unique) and ", "", "tier1"),
    # check 12 asks only that every insertion lies in some slot: only the
    # planted insertion in two blocks sees it
    (VERIFY, "sorted(chain.from_iterable(slots)) == insertions",
     "set(chain.from_iterable(slots)) == set(insertions)", "tier1"),
    # check 12 accepts a slot in any order: only the planted reversed
    # retained tuple sees it
    (VERIFY, "frame and increasing.issuperset(slots)\n        and ", "frame and ", "tier1"),
    # the last slot of every term left empty: check 12's counts see it
    (WALLX, "product(range(slots), repeat=m)", "product(range(slots - 1), repeat=m)",
     "verify"),
    # every composition starts with a part of 2 or more
    (WALLX, "for first in range(1, n + 1):", "for first in range(2, n + 1):", "verify"),
    # check 4 compares exp(q) C_k with the ch_k series only to q^199: only
    # the planted q^200 coefficients at k = 2 and k = 20 see it
    (VERIFY, "for n in range(201):", "for n in range(200):", "tier1"),
    # check 4 compares each connected piece with the next frozen coefficient
    (VERIFY, "_CH_SERIES_FACTORS[k].get(j, 0)", "_CH_SERIES_FACTORS[k].get(j + 1, 0)", "verify"),
    # check 4 builds each connected piece only through q^15: only the
    # planted values at q^16 see it
    (VERIFY, "for m in range(17)]", "for m in range(16)]", "tier1"),
    # check 4's zero test starts two coefficients past the bound: only the
    # planted piece at q^12, one past the bound of C_20, sees it
    (VERIFY, "range((k + 2) // 2 + 1, len(piece))", "range((k + 2) // 2 + 2, len(piece))",
     "tier1"),
    # check 3 leaves out ch_3: only the planted values of <ch_3> see it
    (VERIFY, "for k in (2, 3):", "for k in (2,):", "tier1"),
    # check 3 divides the frozen C_k by (n - j + 1)! in place of (n - j)!
    (VERIFY, "c / factorial(n - j)", "c / factorial(n - j + 1)", "verify"),
    # the off-diagonal sum sampled at one more point and its degree test
    # reading the (K+2)-th difference: only a sum of degree K + 1 in M,
    # which the homogeneity test refuses with another message, passes it
    (VERIFY, "range(start, start + big + 2)", "range(start, start + big + 3)", "tier1"),
    # each distinct index's power sum taken once, whatever its multiplicity
    (VERIFY, "** e for k, e in counts", "for k, e in counts", "verify"),
    # check 10 leaves out its two off-diagonal comparisons at n = 21: only the
    # planted value at the top of its range sees it
    (VERIFY, "pairs + [(21, (3, 4, 5)), (21, (2, 2, 2, 2))]:", "pairs:", "tier1"),
    # the homogeneity test of the off-diagonal sum scaled by 2^(K+1)
    (VERIFY, "2 ** big * diffs[0]", "2 ** (big + 1) * diffs[0]", "verify"),
    # arm and leg swapped in the first tangent weight of each box, which
    # the kernel and the off-diagonal sum both read
    (HILB, "out.append((a + 1, -l))", "out.append((l + 1, -a))", "verify"),
    # a 65th --ch accepted: only the test of flag 65 sees it
    (CLI, "if len(values) == MAX_K:", "if len(values) > MAX_K:", "tier1"),
    # JSON indented by one space a level: the byte-stable digests
    (CLI, 'inner = indent + "  "', 'inner = indent + " "', "tier1"),
    # True written as Python's True in an int line: the renderer test's [1, True]
    (CLI, "set(map(type, obj)) == {int}",
     "all(isinstance(value, int) for value in obj)", "tier1"),
    # the writer's final newline dropped: the byte-stable digests
    (CLI, 'piece.append("\\n")', 'piece.append("")', "tier1"),
]
EQUIVALENT = {
    (HILB, "(1 + (parts != conjugate(parts)))", "(1 + (parts > conjugate(parts)))"):
        "the table keeps only rows with parts >= conjugate(parts), so != and > agree",
    (HILB, "digit, half = (1 << bits) - 1, 1 << bits - 1",
     "digit, half = (1 << bits) - 1, 1 << bits - 2"):
        "bits keeps two bits above the bound (bit_length() + 2), so every digit "
        "lies below 2^(bits - 2): an offset of 2^(bits - 2) still makes each digit "
        "nonnegative, and the pole check and the top read both use the offset itself",
}


def _fails(catcher: str, tree: Path) -> bool:
    """Whether the catcher exits nonzero, run in tree on its own sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(CATCHERS[catcher], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode != 0


def _tree(tmp: Path, *edit: str) -> Path:
    """A fresh copy of the tree under tmp, with edit = (file, old, new)
    applied if one is given."""
    tree = Path(tempfile.mkdtemp(dir=tmp))
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(ROOT / name, tree / name)
    if edit:
        file, old, new = edit
        path = tree / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    return tree


def _sweep(tmp: Path) -> list[str]:
    """Run every edit against its catcher; return the problems found."""
    unedited = _tree(tmp)
    problems = [f"{catcher} fails on the unedited tree"
                for catcher in CATCHERS if _fails(catcher, unedited)]
    if problems:
        return problems
    for file, old, new, catcher in EDITS:
        caught = _fails(catcher, _tree(tmp, file, old, new))
        print(f"{'caught' if caught else 'MISSED'} by {catcher}: {new!r}")
        if not caught:
            problems.append(f"{catcher} passes with {file}: {old!r} -> {new!r}")
    for (file, old, new), reason in EQUIVALENT.items():
        tree = _tree(tmp, file, old, new)
        print(f"equivalent, {reason}: {new!r}")
        problems += [f"equivalent but {catcher} fails with {file}: {old!r} -> {new!r}"
                     for catcher in CATCHERS if _fails(catcher, tree)]
    return problems


def main() -> int:
    problems = []
    for file, old, _ in [edit[:3] for edit in EDITS] + list(EQUIVALENT):
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{file}: {old!r} occurs {count} times, not once")
    if not problems:
        with tempfile.TemporaryDirectory() as tmp:
            problems = _sweep(Path(tmp))
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"{len(EDITS)} edits caught, {len(EQUIVALENT)} equivalent and allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
