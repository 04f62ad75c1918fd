"""The verification suite: every exactness claim the package makes, run as
one pass/fail check each.

Checks compare against independent closed forms or brute-force recounts,
never against the code path under test: brackets against their factorial
closed forms and the off-diagonal sum :func:`offdiagonal_bracket`, the ch_k
series against exp(q) times the connected piece C_k = Z_k exp(-q) built
from localization through q^16, where it gives the localization values,
that piece against its frozen closed form for k = 2..6, the tree-locus integrals
against their Pascal-style recursion, the dilaton closures that the Euler
wall-crossing reads against integer binomials, and the combinatorial
expanders' term lists against closed-form counts of their well-formed
terms: a list of well-formed terms without repeats, as long as that count,
is all of them.  Everything is exact; a check fails only on a true mismatch.

The off-diagonal sum rests on a claim argued from the Hilbert-Chow map to
Sym^n(C^2), which is proper, and not proven here: n! (t1 t2)^n times a
bracket of total ch degree K is a homogeneous polynomial of degree K.

Check 10 also tests a second claim, argued the same way and not proven
here: n! * prod_i k_i! * C is an integer, where C * t^(K - 2n) is the
bracket on the diagonal.  k! ch_k is the k-th power sum of the Chern roots,
an integral class; its pushforward along the Hilbert-Chow map to
Sym^n(C^2) pulls back to (C^2)^n, so n! (t1 t2)^n prod_i k_i! times the
bracket lies in Z[t1, t2], and at t1 = t2 = 1 it is that integer.

Check 4 tests a claim observed, not argued: C_k is a polynomial in q of
degree at most (k + 2) // 2, the nonpolar threshold of one-end
contributions; it requires every coefficient past it through q^16 to be 0.
exp(q) is invertible, so with the series equal to exp(q) C_k, C_k equals
its frozen form exactly when the series equals exp(q) times that form.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from math import comb, factorial, lcm, perm, prod
from typing import Callable, Iterable

from .exact import Monomial
from .fmcalc import pure_tilde_closures, tn_integral
from .hilb import (LocalizationError, conjugate, enumerate_partitions, fixed_point_data,
                   hilb_integral, tangent_weights, taut_weights)
from .ifun import nonpolar_ifunction
from .wallx import (ch_series, euler_series_closed, euler_series_wc,
                    expand_full_crossing, expand_wall_terms)


# ---------------------------------------------------------------------------
# frozen connected pieces C_k, k = 2 .. 6, as {power of q: coefficient}: the
# series of <ch_k>_n is exp(q/t^2) C_k.  Never computed from hilb, or check 4
# would compare the code with itself.
_CH_SERIES_FACTORS = {
    2: {2: Fraction(-1, 4)},
    3: {2: Fraction(1, 6)},
    4: {2: Fraction(-1, 16), 3: Fraction(1, 36)},
    5: {2: Fraction(1, 60), 3: Fraction(-1, 30)},
    6: {2: Fraction(-1, 288), 3: Fraction(23, 1080), 4: Fraction(-1, 576)},
}


def offdiagonal_bracket(n: int, ks: Iterable[int] = ()) -> Monomial:
    """<prod_i ch_{k_i}>_n as C * t^(K - 2n), K = sum(ks), from the full-torus
    sum at t1 = 1, t2 = M = n+1 .. n+K+2, where no tangent weight vanishes.
    Raises LocalizationError unless P = n! (t1 t2)^n <prod ch_k>_n has a zero
    (K+1)-th forward difference over those M (the degree claim) and P(2,
    2(n+1)) = 2^K P(1, n+1), which holds term by term and guards the
    evaluation.  C is P(1, 1) / n! by Newton's forward formula."""
    ks = tuple(ks)
    if n < 1 or any(k < 0 for k in ks):
        raise ValueError("n must be >= 1 and ch indices nonnegative")
    points = [(tangent_weights(lam), taut_weights(lam)) for lam in enumerate_partitions(n)]
    counts = Counter(ks).items()  # one power sum per distinct index, to its multiplicity

    def p(t1: int, t2: int) -> Fraction:  # P * prod k! / n!
        dens = [prod(a * t1 + b * t2 for a, b in tangent) for tangent, _ in points]
        common = lcm(*dens)
        total = 0
        for (_, taut), d in zip(points, dens):
            ws = [-(c * t1 + r * t2) for c, r in taut]
            total += prod(sum([w ** k for w in ws]) ** e for k, e in counts) * (common // d)
        return Fraction((t1 * t2) ** n * total, common)

    big, start = sum(ks), n + 1
    values = [p(1, m) for m in range(start, start + big + 2)]
    diffs = [sum((-1) ** (j - i) * comb(j, i) * v for i, v in enumerate(values[:j + 1]))
             for j in range(len(values))]  # forward differences at M = start
    if diffs[-1]:
        raise LocalizationError("off-diagonal sum has degree above K")
    if p(2, 2 * start) != 2 ** big * diffs[0]:
        raise LocalizationError("off-diagonal sum is not homogeneous of degree K")
    # P(1, start + x) at x = -n, with C(-n, j) = (-1)^j C(n + j - 1, j)
    value = sum((-1) ** j * comb(n + j - 1, j) * d for j, d in enumerate(diffs))
    return Monomial(value / prod(map(factorial, ks)), big - 2 * n)


# ---------------------------------------------------------------------------
# the twelve checks


def check_normalization() -> tuple[bool, str]:
    for n in range(1, 26):
        expected = Monomial(Fraction(1, factorial(n)), -2 * n)
        if hilb_integral(n) != expected:
            return False, f"empty bracket mismatch at n={n}"
    return True, "<1>_n = 1/(n! t^2n) for n = 1..25"


def check_ch1_vanishing() -> tuple[bool, str]:
    for n in range(1, 26):
        if not hilb_integral(n, [1]).is_zero():
            return False, f"<ch_1>_{n} is nonzero"
    return True, "<ch_1>_n = 0 for n = 1..25"


def check_closed_forms() -> tuple[bool, str]:
    for n in range(2, 26):
        for k in (2, 3):  # the q^n coefficient of exp(q) times the frozen C_k
            want = sum(c / factorial(n - j) for j, c in _CH_SERIES_FACTORS[k].items())
            if hilb_integral(n, [k]) != Monomial(want, k - 2 * n):
                return False, f"<ch_{k}>_{n} mismatch"
    return True, "<ch_2>_n and <ch_3>_n closed forms for n = 2..25"


def check_ch_series_golden() -> tuple[bool, str]:
    for k in range(21):
        got = ch_series(k, 200)
        # the connected piece C_k = Z_k exp(-q), Z_k = sum_n <ch_k>_n q^n at
        # t = 1, from localization through q^16: exp(q) C_k at q^n is then
        # <ch_k>_n for n <= 16, so the comparison below covers localization
        piece = [sum(hilb_integral(n, [k]).coeff * (-1) ** (m - n) / factorial(m - n)
                     for n in range(1, m + 1)) for m in range(17)]
        for j in range((k + 2) // 2 + 1, len(piece)):
            if piece[j]:
                return False, f"connected piece of ch_{k} is nonzero at q^{j}"
        # for k = 2..6 the piece must equal its frozen form through q^16
        for j in range(len(piece) if k in _CH_SERIES_FACTORS else 0):
            if piece[j] != _CH_SERIES_FACTORS[k].get(j, 0):
                return False, f"connected piece of ch_{k} differs from its frozen form at q^{j}"
        # exp(q) C_k at q^n is sum_j C_k[j] n!/(n-j)! / n!, over one denominator
        common = lcm(*(c.denominator for c in piece))
        ints = [c.numerator * (common // c.denominator) for c in piece]
        for n in range(201):
            want = Fraction(sum(c * perm(n, j) for j, c in enumerate(ints)), common * factorial(n))
            if got[n] != Monomial(want, k - 2 * n):
                return False, f"ch_{k} series differs from exp(q) C_{k} at q^{n}"
    return True, ("ch_2..ch_6 series match closed forms to q^200; k <= 20 is exp(q) C_k to "
                  "q^200, C_k from localization to q^16 of degree <= (k+2)//2")


def _euler_identity(d: int, detail: str, base: list[int]) -> tuple[bool, str]:
    """Wall-crossing against the closed form in dimension d, |c| <= 6, to q^20;
    a series that stops short of q^20 fails rather than compares on a prefix.
    Both sides read one base series F, and (1 + (F - 1))^c = F^c for every F,
    so ``base``, an independent count of F, is also compared with the c = 1
    wall-crossing series, which is F itself."""
    for c in range(-6, 7):
        wc, closed = euler_series_wc(d, c, 20), euler_series_closed(d, c, 20)
        if len(wc) != 21 or len(closed) != 21:
            return False, (f"dimension-{d} series at c={c} known to q^{len(wc) - 1} "
                           f"and q^{len(closed) - 1}, not q^20")
        if c == 1 and wc != base:
            return False, f"dimension-{d} base series differs from the independent count"
        if wc != closed:
            return False, f"dimension-{d} series mismatch at c={c}"
    return True, detail


def check_macdonald() -> tuple[bool, str]:
    # Hilb^n(C) has one torus fixed point, the ideal (x^n): one one-row diagram
    fixed_points = [sum(1 for lam in enumerate_partitions(n) if len(lam) <= 1)
                    for n in range(21)]
    return _euler_identity(
        1, "base equals the fixed-point count of Hilb^n(C); wall-crossing "
           "equals (1/(1-q))^c to q^20 for |c| <= 6", fixed_points)


def check_gottsche() -> tuple[bool, str]:
    # the Euler characteristic of Hilb^n(C^2) is its number of torus fixed points
    fixed_points = [len(enumerate_partitions(n)) for n in range(21)]
    return _euler_identity(
        2, "base equals the fixed-point count of Hilb^n(C^2); wall-crossing "
           "equals the Euler-product power to q^20 for |c| <= 6", fixed_points)


def _plane_partition_counts(order: int) -> list[int]:
    """Plane partitions of n for n <= order, counted by stacking rows: each
    row is a partition no larger, part by part, than the row above it."""
    memo: dict[tuple[tuple[int, ...], int], list[int]] = {}

    def stacks(above: tuple[int, ...], left: int) -> list[int]:
        """Stacks of rows under ``above`` with at most ``left`` boxes, by size."""
        # part i of a row of at most `left` boxes is at most left // (i + 1)
        above = tuple(min(a, left // (i + 1)) for i, a in enumerate(above[:left]))
        if (above, left) not in memo:
            counts = [1] + [0] * left
            todo = [((), left)]
            while todo:
                row, rest = todo.pop()
                if row:
                    for boxes, count in enumerate(stacks(row, rest), left - rest):
                        counts[boxes] += count
                if len(row) < len(above):
                    top = min(above[len(row)], rest, row[-1] if row else rest)
                    todo += [(row + (part,), rest - part) for part in range(1, top + 1)]
            memo[above, left] = counts
        return memo[above, left]

    return stacks((order,) * order, order)


def check_dt_identity() -> tuple[bool, str]:
    # up to the sign (-1)^n, the Euler characteristic of Hilb^n(C^3) is its
    # number of torus fixed points: the plane partitions of n
    fixed_points = [(-1) ** n * pp for n, pp in enumerate(_plane_partition_counts(20))]
    return _euler_identity(
        3, "base equals the signed plane-partition count of Hilb^n(C^3); "
           "wall-crossing equals M(-q)^c to q^20 for |c| <= 6", fixed_points)


def check_dilaton_closure() -> tuple[bool, str]:
    # independent oracle: the falling factorial at integer points is k!*C(x,k)
    for d in (1, 2, 3):
        for k, value in zip(range(9), pure_tilde_closures(d)):
            sign = (-1) ** (d * k)
            for x in range(0, 20):
                want = sign * factorial(k) * comb(x, k)
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
            recursed = 0
            if a >= 2:
                recursed -= tn_integral(n - 1, a - 2, b)
            if b >= 2:
                recursed += tn_integral(n - 1, a, b - 2)
            if tn_integral(n, a, b) != recursed:
                return False, f"square-removal recursion fails at ({n},{a},{b})"
    return True, "T_N base values, degree selection and square-removal recursion, N <= 10"


def check_property_suites() -> tuple[bool, str]:
    grid = [ks for size in range(4) for ks in combinations_with_replacement(range(9), size)]
    for ks in grid:
        for n in range(1, 7):
            value = hilb_integral(n, ks)
            if (value.coeff * factorial(n) * prod(map(factorial, ks))).denominator != 1:
                return False, f"n! prod k! C is not an integer at n={n}, ks={ks}"
    # the grid's brackets of at most two insertions, and two larger ones at n = 21
    pairs = [(n, ks) for ks in grid if len(ks) <= 2 for n in range(1, 7)]
    for n, ks in pairs + [(21, (3, 4, 5)), (21, (2, 2, 2, 2))]:
        try:
            if offdiagonal_bracket(n, ks) != hilb_integral(n, ks):
                return False, f"off-diagonal value differs at n={n}, ks={ks}"
        except LocalizationError as err:
            return False, f"{err} at n={n}, ks={ks}"
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
    return True, (f"integrality + regularity on all {len(grid)} multisets of at most 3 ch "
                  f"indices in 0..8 (n <= 6), the {sum(len(ks) <= 2 for ks in grid)} of at most 2 "
                  "and (3,4,5), (2,2,2,2) at n = 21 equal to their degree-K sum off the "
                  "diagonal; transpose symmetry (n <= 8)")


def check_ifunction_threshold() -> tuple[bool, str]:
    # every multiset of positive indices with sum <= 14, by sum
    for ks in [lam for size in range(15) for lam in enumerate_partitions(size)]:
        total = sum(ks)
        for n in range(1, 7):
            seed = nonpolar_ifunction(n, ks)
            expect_zero = total < 2 * n - 2 or hilb_integral(n, ks).is_zero()
            if seed.is_zero() != expect_zero:
                return False, f"threshold fails at n={n}, ks={ks}"
            if not seed.is_zero() and seed.exp != total - 2 * n + 2:
                return False, f"exponent law fails at n={n}, ks={ks}"
    return True, "nonpolar part vanishes iff sum k < 2n-2 or the bracket is 0 (n <= 6, sum k <= 14)"


def _is_every_term(terms: list, framed: Iterable, m: int, count: int) -> bool:
    """Whether ``terms`` lists each of the ``count`` well-formed terms once.
    ``framed`` gives, term by term, whether its frame is right and its
    slots; a term is well-formed when its frame is right and its slots are
    increasing tuples that hold each insertion 0..m-1 once.  Distinct
    well-formed terms are a subset of all of them, and a subset as large
    as the whole set is the whole set."""
    unique, insertions = set(terms), list(range(m))
    # every increasing tuple of insertions, each a combination of them
    increasing = {c for size in range(m + 1) for c in combinations(insertions, size)}
    return len(terms) == len(unique) and len(unique) == count and all(
        frame and increasing.issuperset(slots)
        and sorted(chain.from_iterable(slots)) == insertions for frame, slots in framed)


def check_combinatorics() -> tuple[bool, str]:
    for n in range(1, 13):
        # m = 0 lists the compositions, to n = 12; the other ranges stop at 6
        ms, walls = (range(5), range(1, n + 1)) if n <= 6 else (range(1), ())
        for m in ms:
            for n0 in walls:
                terms, top = expand_wall_terms(n, m, n0), n // n0
                # each insertion picks one of the k + 1 slots
                count = sum((k + 1) ** m for k in range(1, top + 1))
                framed = ((1 <= k <= top and len(blocks) == k, (retained,) + blocks)
                          for k, retained, blocks in terms)
                if not _is_every_term(terms, framed, m, count):
                    return False, f"wall terms differ at n={n}, m={m}, n0={n0}"
            terms = expand_full_crossing(n, m)
            # C(n - 1, j - 1) compositions of n into j parts, j^m placements each
            count = sum(comb(n - 1, j - 1) * j ** m for j in range(1, n + 1))
            framed = ((min(sizes) >= 1 and sum(sizes) == n, slots)
                      for sizes, slots in (zip(*term) for term in terms))
            if not _is_every_term(terms, framed, m, count):
                return False, (f"full-crossing terms differ at n={n}, m={m}" if m
                               else f"composition count fails at n={n}")
    return True, ("2^(n-1) compositions (n <= 12); each expander lists its closed-form "
                  "count of distinct well-formed terms (n <= 6, m <= 4)")


# the one list of checks, each returning (passed, detail): `hilbwall verify`
# and tests/test_acceptance.py both run it as it stands
ALL_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("normalization of the empty bracket", check_normalization),
    ("vanishing of the ch_1 brackets", check_ch1_vanishing),
    ("ch_2 and ch_3 closed forms", check_closed_forms),
    ("ch_k generating series (golden + localization)", check_ch_series_golden),
    ("Macdonald identity (dimension 1)", check_macdonald),
    ("Goettsche identity (dimension 2)", check_gottsche),
    ("MacMahon identity (dimension 3)", check_dt_identity),
    ("dilaton closure of pure tilde brackets", check_dilaton_closure),
    ("tree-locus integral calculus", check_tn_calculus),
    ("integrality, regularity and transpose symmetry", check_property_suites),
    ("nonpolar threshold of one-end contributions", check_ifunction_threshold),
    ("wall-crossing combinatorics", check_combinatorics),
]
