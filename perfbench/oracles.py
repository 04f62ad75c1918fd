"""Oracles for the benchmark, written apart from hilbwall and never calling it.

* Closed forms of the brackets <ch_k>_n for k <= 6 (the paper's generating
  series read off coefficient by coefficient), with ch_0 insertions
  multiplying the bracket by n.
* A direct localization sum over partitions for any bracket.  It deforms
  the diagonal as t1 = t + e, t2 = t (the program deforms t2 by default),
  sets t = 1 because the degree K - 2n is known, and stays in integers up
  to one power-series division per fixed point.
* Series coefficients: Macdonald's C(c+n-1, n), Goettsche's coefficients
  from Euler's recurrence, and partition counts from the pentagonal
  recurrence.

A bracket value is a pair (C, K - 2n) meaning C * t^(K - 2n); C may be 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def _inv_fact(m: int) -> Fraction:
    """1/m!, read as 0 for negative m (the convention of the exp(q/t^2) shifts)."""
    return Fraction(1, factorial(m)) if m >= 0 else Fraction(0)


def closed_bracket(n: int, ks) -> Fraction | None:
    """Coefficient C of <prod ch_k>_n = C t^(K-2n) by closed form, or None.

    Covers the empty bracket and a single ch_k with 1 <= k <= 6, each padded
    with any number of ch_0 insertions.
    """
    ks = sorted(ks)
    pads = ks.count(0)
    rest = ks[pads:]
    if len(rest) > 1 or (rest and rest[0] > 6):
        return None
    k = rest[0] if rest else 0
    i = _inv_fact
    forms = {
        0: lambda: i(n),
        1: lambda: Fraction(0),
        2: lambda: -i(n - 2) / 4,
        3: lambda: i(n - 2) / 6,
        4: lambda: -5 * i(n - 3) / 144 + (n - 3) * i(n - 2) / 16,
        5: lambda: -i(n - 3) / 60 - (n - 3) * i(n - 2) / 60,
        6: lambda: (77 * i(n - 4) / 4320 - 77 * (n - 4) * i(n - 3) / 4320
                    - (n - 3) * (n - 4) * i(n - 2) / 576),
    }
    return forms[k]() * n ** pads


def partitions(n: int):
    """Partitions of n as weakly decreasing tuples."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for p in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - p, p):
                yield (p,) + rest
    return list(rec(n, n))


def _mul_trunc(a: list[int], b: list[int], length: int) -> list[int]:
    out = [0] * min(length, len(a) + len(b) - 1)
    for i, x in enumerate(a[:length]):
        if x:
            for j, y in enumerate(b[: length - i]):
                out[i + j] += x * y
    return out


def _linear_power(c0: int, c1: int, k: int, length: int) -> list[int]:
    """(c0 + c1 e)^k as an integer list truncated at ``length``."""
    return [comb(k, j) * c0 ** (k - j) * c1 ** j for j in range(min(k, length - 1) + 1)]


@lru_cache(maxsize=None)
def local_bracket(n: int, ks: tuple[int, ...]) -> Fraction:
    """Coefficient C of <prod ch_k>_n = C t^(K-2n) by torus localization.

    At the fixed point of a partition, the box in row r and column c with
    arm a and leg l has tangent weights (a+1) t1 - l t2 and -a t1 + (l+1) t2,
    and the tautological fiber has weights -(c t1 + r t2), so that
    k! ch_k = sum over boxes of (-(c t1 + r t2))^k.  With t1 = 1 + e and
    t2 = 1 a weight is w0 + w1 e; the P weights with w0 = 0 are poles.  The
    e^0 coefficient of N(e) / (prod w(e)) is [e^P](N / D) / prod(pole slopes)
    where D is the product of the other weights.
    """
    total = Fraction(0)
    for lam in partitions(n):
        conj = [sum(1 for p in lam if p > c) for c in range(lam[0])]
        boxes = [(r, c) for r, p in enumerate(lam) for c in range(p)]
        weights = []
        for r, c in boxes:
            a, l = lam[r] - c - 1, conj[c] - r - 1
            weights += [(a + 1 - l, a + 1), (l + 1 - a, -a)]
        poles = [w1 for w0, w1 in weights if w0 == 0]
        length = len(poles) + 1
        den = [1]
        for w0, w1 in weights:
            if w0:
                den = _mul_trunc(den, [w0, w1], length)
        num = [1]
        for k in ks:
            chk = [0] * length
            for r, c in boxes:
                for j, x in enumerate(_linear_power(-(c + r), -c, k, length)):
                    chk[j] += x
            num = _mul_trunc(num, chk, length)
        num += [0] * (length - len(num))
        quot: list[Fraction] = []
        for j in range(length):
            acc = Fraction(num[j]) - sum(den[i] * quot[j - i]
                                         for i in range(1, min(j, len(den) - 1) + 1))
            quot.append(acc / den[0])
        slope = 1
        for w1 in poles:
            slope *= w1
        total += quot[-1] / slope
    for k in ks:
        total /= factorial(k)
    return total


def bracket(n: int, ks) -> Fraction:
    """The bracket coefficient: closed form when one exists, else localization."""
    closed = closed_bracket(n, ks)
    return closed if closed is not None else local_bracket(n, tuple(sorted(ks)))


def one_end(n: int, ks, coeff: Fraction) -> tuple[Fraction, int] | None:
    """Nonpolar one-end contribution C u^e from the bracket coefficient C.

    Zero (None) exactly when K < 2n - 2 or the bracket vanishes; otherwise
    e = K - 2n + 2.
    """
    exp = sum(ks) - 2 * n + 2
    if exp < 0 or coeff == 0:
        return None
    return coeff, exp


@lru_cache(maxsize=None)
def partition_counts(n: int) -> tuple[int, ...]:
    """p(0..n) from Euler's pentagonal recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        j, total = 1, 0
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            total += sign * p[m - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= m:
                total += sign * p[m - j * (3 * j + 1) // 2]
            j += 1
        p[m] = total
    return tuple(p)


def macdonald(c: int, order: int) -> list[Fraction]:
    """Coefficients of (1 - q)^(-c): C(c + n - 1, n) for integer c."""
    out, value = [], Fraction(1)
    for n in range(order + 1):
        out.append(value)
        value = value * (c + n) / (n + 1)
    return out


def goettsche(c: int, order: int) -> list[Fraction]:
    """Coefficients of prod (1 - q^m)^(-c) by a_n = (c/n) sum_j sigma(j) a_(n-j)."""
    sigma = [0] + [sum(d for d in range(1, j + 1) if j % d == 0) for j in range(1, order + 1)]
    a = [Fraction(1)]
    for n in range(1, order + 1):
        a.append(Fraction(c, n) * sum(sigma[j] * a[n - j] for j in range(1, n + 1)))
    return a


def self_check() -> list[str]:
    """Each oracle on values known from the literature; returns the failures."""
    errors = []
    if partition_counts(30)[30] != 5604:
        errors.append("pentagonal recurrence: p(30) != 5604")
    if len(partitions(12)) != partition_counts(12)[12]:
        errors.append("partition enumeration disagrees with p(12)")
    for name, value in (("closed form", closed_bracket(3, [2])),
                        ("localization", local_bracket(3, (2,)))):
        if value != Fraction(-1, 4):
            errors.append(f"{name}: <ch_2>_3 != -1/4 t^-4")
    if one_end(2, [4], bracket(2, [4])) != (Fraction(-1, 16), 2):
        errors.append("one-end law: n=2, ch_4 is not -1/16 u^2")
    if macdonald(-5, 3) != [1, -5, 10, -10] or goettsche(24, 3) != [1, 24, 324, 3200]:
        errors.append("Macdonald or Goettsche coefficients wrong at low order")
    if [partition_counts(12)[n] for n in range(13)] != [int(x) for x in goettsche(1, 12)]:
        errors.append("Goettsche recurrence at c=1 disagrees with p(n)")
    for n in range(1, 8):
        for ks in ((), (0,), (2, 0), (3,), (4,), (5, 0), (6,)):
            if closed_bracket(n, ks) != local_bracket(n, ks):
                errors.append(f"closed form and localization disagree at n={n}, ks={ks}")
    return errors
