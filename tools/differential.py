"""Kernel differential: one hash over 9,825 brackets of hilb_integral.

Evaluates every partition of m <= 12 with 0, 1 and 2 trailing ch_0 pads
at n = 1..12, then eleven insertion shapes at n = 18, 21 and 24, so that
both bracket paths and the ch_0 rank factor run.  First compares all 33
large brackets, the eleven shapes at each of n = 18, 21 and 24, with the
off-diagonal sum of :func:`hilbwall.verify.offdiagonal_bracket`, so that
the hash of the large brackets rests on an independent value, and exits 1
on a mismatch.  Then writes one line ``f"{n} {ks} {value}"`` per bracket,
prints the line count and the sha256 of the text, and exits 1 unless both
match the recorded ones; a change that keeps every bracket keeps the hash.
Takes about 7 s on 2 vCPUs, most of it in the comparisons.  Run from the
root of a checkout:

    PYTHONPATH=src python tools/differential.py
"""

from __future__ import annotations

import hashlib
import sys

from hilbwall.hilb import enumerate_partitions, hilb_integral
from hilbwall.verify import offdiagonal_bracket

SHAPES = ((), (2,), (4,), (8,), (2, 2), (3, 5), (8, 8), (2, 2, 2), (3, 4, 5),
          (2, 3, 4, 5), (12,))
LARGE = [(n, s) for n in (18, 21, 24) for s in SHAPES]
GRID = [(n, p + (0,) * pads) for n in range(1, 13) for m in range(13)
        for p in enumerate_partitions(m) for pads in range(3)] + LARGE
LINES = 9825
SHA256 = "60b71b838e20db224ef0cc4e19810461bbc6012576dfb8a85e17f616b2368262"


def main() -> int:
    for n, ks in LARGE:
        if hilb_integral(n, ks) != offdiagonal_bracket(n, ks):
            print(f"n = {n}, ks = {ks}: the kernel differs from the off-diagonal sum")
            return 1
    text = "".join(f"{n} {ks} {hilb_integral(n, ks)}\n" for n, ks in GRID)
    lines, digest = len(GRID), hashlib.sha256(text.encode()).hexdigest()
    print(f"{lines} lines, sha256 {digest}")
    if (lines, digest) != (LINES, SHA256):
        print(f"expected {LINES} lines, sha256 {SHA256}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
