"""The verification suite: every exactness claim the package makes, run as
one pass/fail check each.

Checks compare against independent closed forms or brute-force recounts,
never against the code path under test: bracket values against their
factorial closed forms, the assembled ch_k series against both the direct
localization values and frozen generating-series shapes, the tree-locus
integrals against their Pascal-style recursion, the dilaton rewrite against
integer binomials, and the combinatorial expanders against recursive
enumeration.  Everything is exact; a check fails only on a true mismatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from .exact import Monomial
from .fmcalc import reduce_pure_tilde, tn_integral
from .hilb import (LocalizationError, conjugate, enumerate_partitions,
                   fixed_point_data, hilb_integral)
from .ifun import nonpolar_ifunction
from .wallx import (ch_series, dt_identity_check, euler_series_closed,
                    euler_series_wc, expand_full_crossing, expand_wall_terms)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# frozen generating-series shapes for the ch_k brackets, k = 2 .. 6


def _shifted_exp(order: int, shift_q: int, shift_t: int,
                 scale: Fraction) -> list[Monomial]:
    """scale * q^shift_q * t^shift_t * exp(q/t^2), truncated at ``order``."""
    coeffs = [Monomial(0, 0)] * (order + 1)
    for m in range(order - shift_q + 1):
        coeffs[m + shift_q] = Monomial(scale * Fraction(1, factorial(m)), -2 * m + shift_t)
    return coeffs


def golden_ch_series(k: int, order: int) -> list[Monomial]:
    """The closed generating-series forms of the ch_k brackets, k = 2 .. 6."""
    zero = [Monomial(0, 0)] * (order + 1)
    if k == 2:
        return _shifted_exp(order, 2, -2, Fraction(-1, 4))
    if k == 3:
        return _shifted_exp(order, 2, -1, Fraction(1, 6))
    if k == 4:
        s = _shifted_exp(order, 3, -2, Fraction(-5, 144))
        extra = list(zero)
        extra[2] = Monomial(Fraction(-1, 16), 0)
        for n in range(4, order + 1):
            extra[n] = Monomial(Fraction(n - 3, 16 * factorial(n - 2)), -2 * (n - 2))
        return [a + b for a, b in zip(s, extra)]
    if k == 5:
        s = _shifted_exp(order, 3, -1, Fraction(-1, 60))
        extra = list(zero)
        extra[2] = Monomial(Fraction(1, 60), 1)
        for n in range(4, order + 1):
            extra[n] = Monomial(Fraction(-(n - 3), 60 * factorial(n - 2)), -2 * (n - 2) + 1)
        return [a + b for a, b in zip(s, extra)]
    if k == 6:
        s = _shifted_exp(order, 4, -2, Fraction(77, 4320))
        extra = list(zero)
        extra[2] = Monomial(Fraction(-1, 288), 2)
        if order >= 3:
            extra[3] = Monomial(Fraction(77, 4320), 0)
        for n in range(5, order + 1):
            e = -2 * (n - 3)
            extra[n] = (Monomial(Fraction(-77 * (n - 4), 4320 * factorial(n - 3)), e)
                        + Monomial(Fraction(-1, 576 * (n - 2) * factorial(n - 5)), e))
        return [a + b for a, b in zip(s, extra)]
    raise ValueError("closed series shapes are recorded for k = 2 .. 6")


# ---------------------------------------------------------------------------
# the twelve checks


def check_normalization() -> tuple[bool, str]:
    for n in range(1, 17):
        expected = Monomial(Fraction(1, factorial(n)), -2 * n)
        if hilb_integral(n) != expected:
            return False, f"empty bracket mismatch at n={n}"
    return True, "<1>_n = 1/(n! t^2n) for n = 1..16"


def check_ch1_vanishing() -> tuple[bool, str]:
    for n in range(1, 17):
        if not hilb_integral(n, [1]).is_zero():
            return False, f"<ch_1>_{n} is nonzero"
    return True, "<ch_1>_n = 0 for n = 1..16"


def check_closed_forms() -> tuple[bool, str]:
    for n in range(2, 17):
        ch2 = Monomial(Fraction(-1, 4 * factorial(n - 2)), -2 * (n - 1))
        ch3 = Monomial(Fraction(1, 6 * factorial(n - 2)), -(2 * n - 3))
        if hilb_integral(n, [2]) != ch2:
            return False, f"<ch_2>_{n} mismatch"
        if hilb_integral(n, [3]) != ch3:
            return False, f"<ch_3>_{n} mismatch"
    return True, "<ch_2>_n and <ch_3>_n closed forms for n = 2..16"


def check_ch_series_golden() -> tuple[bool, str]:
    for k in (4, 5, 6):
        got = ch_series(k, 10)
        want = golden_ch_series(k, 10)
        for n in range(11):
            if got[n] != want[n]:
                return False, f"ch_{k} series differs at q^{n}"
    for k in range(7):
        got = ch_series(k, 8)
        for n in range(1, 9):
            if got[n] != hilb_integral(n, [k]):
                return False, f"ch_{k} series disagrees with localization at q^{n}"
    return True, "ch_4..ch_6 series match closed forms to q^10; k <= 6 matches localization to q^8"


def _euler_identity(d: int, detail: str) -> tuple[bool, str]:
    """Wall-crossing against the closed form in dimension d, |c| <= 6, to q^20;
    a series that stops short of q^20 fails rather than compares on a prefix."""
    for c in range(-6, 7):
        wc, closed = euler_series_wc(d, c, 20), euler_series_closed(d, c, 20)
        if len(wc) != 21 or len(closed) != 21:
            return False, (f"dimension-{d} series at c={c} known to q^{len(wc) - 1} "
                           f"and q^{len(closed) - 1}, not q^20")
        if wc != closed:
            return False, f"dimension-{d} series mismatch at c={c}"
    return True, detail


def check_macdonald() -> tuple[bool, str]:
    return _euler_identity(1, "wall-crossing equals (1/(1-q))^c to q^20 for |c| <= 6")


def check_gottsche() -> tuple[bool, str]:
    return _euler_identity(
        2, "wall-crossing equals the Euler-product power to q^20 for |c| <= 6")


def check_dt_identity() -> tuple[bool, str]:
    for c in range(-6, 7):
        if not dt_identity_check(c, 16):
            return False, f"MacMahon substitution fails at c={c}"
    return True, "exp(c log M(-q)) = M(-q)^c to q^16 for |c| <= 6"


def check_dilaton_closure() -> tuple[bool, str]:
    # independent oracle: the falling factorial at integer points is k!*C(x,k)
    for d in (1, 2, 3):
        for k in range(9):
            value = reduce_pure_tilde(k, d)
            sign = (-1) ** (d * k)
            for x in range(0, 20):
                want = Fraction(sign * factorial(k) * comb(x, k))
                if sum(c * x ** i for i, c in enumerate(value)) != want:
                    return False, f"dilaton closure fails at k={k}, d={d}, c_d={x}"
    return True, "k tilde insertions reduce to (-1)^(dk) k! C(c_d, k) for k <= 8"


def check_tn_calculus() -> tuple[bool, str]:
    if tn_integral(2, 1, 0) != -1 or tn_integral(2, 0, 1) != 1:
        return False, "base values on T_2 are wrong"
    for n in range(2, 11):
        for a in range(0, 26):
            for b in range(0, 26 - a):
                if tn_integral(n, a, b) != 0 and a + b != 2 * n - 3:
                    return False, f"degree selection fails at ({n},{a},{b})"
    for n in range(3, 11):
        for a in range(0, 2 * n - 2):
            b = 2 * n - 3 - a
            recursed = Fraction(0)
            if a >= 2:
                recursed -= tn_integral(n - 1, a - 2, b)
            if b >= 2:
                recursed += tn_integral(n - 1, a, b - 2)
            if tn_integral(n, a, b) != recursed:
                return False, f"square-removal recursion fails at ({n},{a},{b})"
    return True, "T_N base values, degree selection and square-removal recursion, N <= 10"


def check_property_suites() -> tuple[bool, str]:
    rng = random.Random(20260809)
    for _ in range(200):
        ks = tuple(sorted(rng.randrange(0, 9) for _ in range(rng.randrange(0, 4))))
        for n in range(1, 7):
            try:
                value = hilb_integral(n, ks)
            except LocalizationError:
                return False, f"residual eps pole at n={n}, ks={ks}"
            if not value.is_zero():
                if value.exp != sum(ks) - 2 * n:
                    return False, f"degree violation at n={n}, ks={ks}"
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            data = fixed_point_data(lam)
            conj = fixed_point_data(conjugate(lam))
            swap = sorted((b, a) for (a, b) in data.tangent)
            if swap != sorted(conj.tangent):
                return False, f"tangent transpose symmetry fails at {lam}"
            swap = sorted((b, a) for (a, b) in data.taut)
            if swap != sorted(conj.taut):
                return False, f"tautological transpose symmetry fails at {lam}"
    return True, "homogeneity + regularity on 200 random brackets (n <= 6); transpose symmetry (n <= 8)"


def _sum_bounded_partitions(total: int) -> list[tuple[int, ...]]:
    """All multisets of positive integers with sum <= total, as weakly
    decreasing tuples."""
    return [lam for m in range(total + 1) for lam in enumerate_partitions(m)]


def check_ifunction_threshold() -> tuple[bool, str]:
    for ks in _sum_bounded_partitions(14):
        total = sum(ks)
        for n in range(1, 7):
            seed = nonpolar_ifunction(n, ks)
            expect_zero = total < 2 * n - 2 or hilb_integral(n, ks).is_zero()
            if seed.is_zero() != expect_zero:
                return False, f"threshold fails at n={n}, ks={ks}"
            if not seed.is_zero() and seed.exp != total - 2 * n + 2:
                return False, f"exponent law fails at n={n}, ks={ks}"
    return True, "nonpolar part vanishes iff sum k < 2n-2 or the bracket is 0 (n <= 6, sum k <= 14)"


def _wall_terms_recursive(n: int, m: int, n0: int) -> set:
    """Independent enumeration of the single-wall terms."""
    found = set()

    def place(k: int, idx: int, retained: tuple[int, ...],
              blocks: tuple[tuple[int, ...], ...]):
        if idx == m:
            found.add((k, retained, blocks))
            return
        place(k, idx + 1, retained + (idx,), blocks)
        for b in range(k):
            updated = blocks[:b] + (blocks[b] + (idx,),) + blocks[b + 1:]
            place(k, idx + 1, retained, updated)

    k = 1
    while k * n0 <= n:
        place(k, 0, (), ((),) * k)
        k += 1
    return found


def _full_terms_recursive(n: int, m: int) -> set:
    """Independent enumeration of the full-crossing terms."""
    def splits(total):
        if total == 0:
            yield ()
        for first in range(1, total + 1):
            for rest in splits(total - first):
                yield (first,) + rest

    found = set()
    for sizes in splits(n):
        k = len(sizes)

        def place(idx: int, assigned: tuple[tuple[int, ...], ...]):
            if idx == m:
                found.add(tuple(zip(sizes, assigned)))
                return
            for b in range(k):
                place(idx + 1,
                      assigned[:b] + (assigned[b] + (idx,),) + assigned[b + 1:])

        place(0, ((),) * k)
    return found


def check_combinatorics() -> tuple[bool, str]:
    for n in range(1, 13):
        if len(expand_full_crossing(n, 0)) != 2 ** (n - 1):
            return False, f"composition count fails at n={n}"
    for n in range(1, 7):
        for m in range(0, 5):
            for n0 in range(1, n + 1):
                got = {(t.k, t.retained, t.blocks)
                       for t in expand_wall_terms(n, m, n0)}
                if got != _wall_terms_recursive(n, m, n0):
                    return False, f"wall terms differ at n={n}, m={m}, n0={n0}"
            got_full = {t.blocks for t in expand_full_crossing(n, m)}
            if got_full != _full_terms_recursive(n, m):
                return False, f"full-crossing terms differ at n={n}, m={m}"
    return True, "2^(n-1) compositions (n <= 12); expander terms match recursive enumeration"


ALL_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("normalization of the empty bracket", check_normalization),
    ("vanishing of the ch_1 brackets", check_ch1_vanishing),
    ("ch_2 and ch_3 closed forms", check_closed_forms),
    ("ch_k generating series (golden + localization)", check_ch_series_golden),
    ("Macdonald identity (dimension 1)", check_macdonald),
    ("Goettsche identity (dimension 2)", check_gottsche),
    ("MacMahon substitution identity (dimension 3)", check_dt_identity),
    ("dilaton closure of pure tilde brackets", check_dilaton_closure),
    ("tree-locus integral calculus", check_tn_calculus),
    ("homogeneity, regularity and transpose symmetry", check_property_suites),
    ("nonpolar threshold of one-end contributions", check_ifunction_threshold),
    ("wall-crossing combinatorics", check_combinatorics),
]


def run_all_checks() -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        passed, detail = fn()
        results.append(CheckResult(name, passed, detail))
    return results
