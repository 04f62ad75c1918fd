"""Torus localization on the Hilbert scheme of points of the plane.

Fixed points of the full torus (t1, t2) are monomial ideals, indexed by
partitions.  A partition is its parts tuple, positive and weakly
decreasing, as :func:`enumerate_partitions` yields it; every function here
takes that tuple.  The box in row r and column c (both 0-based) corresponds
to the monomial x^c y^r.  Per box with arm a and leg l, the tangent space
carries the hook pair of weights

    (a + 1) * t1 - l * t2      and      -a * t1 + (l + 1) * t2,

with the arm paired to the t1 axis.  The tautological fiber at a monomial
ideal is spanned by the monomials of the quotient ring; as functions they
transform with the dual torus weight -(c * t1 + r * t2), so the Chern
character components are ch_k = sum over boxes of (-(c*t1 + r*t2))^k / k!.
This orientation of the two conventions is pinned by the verification
suite: the empty bracket equals 1/(n! t^(2n)), the ch_1 bracket vanishes,
and the ch_2 .. ch_6 brackets match their closed forms.

The diagonal one-parameter torus is reached without any rational-function
arithmetic.  Substitute t1 = t, t2 = t + eps; every bracket is a single
monomial C * t^(K - 2n), K the total ch degree, so t = 1 loses nothing,
the kernel works with integer eps-series only, and the result is a
:class:`~hilbwall.exact.Monomial`.  At a fixed point with P pole factors
(tangent weights a*t1 + b*t2 whose diagonal part a + b vanishes) the
Euler class is eps^P times the product of the pole slopes b times D, the
product of the non-pole factors (a+b) + b*eps; the numerator
prod k_i! ch_{k_i} is the box sum of (-(c+r) - r*eps)^k.  Both are known
through eps^P.  One power-series division per fixed point gives
d0^(P+1) / D (d0 = D(0)), integral through eps^P, and the scale
local = slopes * d0^(P+1).  The kernel table of n keeps, for every
partition of n, that inverse and common // local, where common, the lcm
of all the scales, is the one denominator the table shares; the ch table
of (n, k) keeps the k! ch_k lists aligned with its rows.  A bracket zips
the table with its ch tables, multiplies each row into its contribution to
eps^-P .. eps^0, and sums the rows as integers over common; the only
Fraction is built at the end.  The sum is regular at eps = 0; surviving
negative powers signal a convention bug and raise
:class:`LocalizationError`.  The only caches are these tables, one per n
and one per (n, k), kept for the life of the process, and the last
BRACKET_CACHE_SIZE brackets; weight data is recomputed when asked for.

The rational-limit cross-check :func:`hilb_integral_via_limit` works on the
full torus instead.  It keeps each polynomial in (t1, t2) as a plain map
``(e1, e2) -> coefficient``, the form :func:`ch_value` returns, and shares
no arithmetic with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterable, Sequence

from .exact import ExactError, Monomial


class LocalizationError(ExactError):
    """The fixed-point sum failed an exactness or regularity check."""


def normalize_insertions(ks: Iterable[int]) -> tuple[int, ...]:
    """Canonical (sorted) form of a multiset of ch indices, all >= 0."""
    out = tuple(sorted(int(k) for k in ks))
    if any(k < 0 for k in out):
        raise ValueError("ch indices must be nonnegative")
    return out


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, as parts tuples in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, cap), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, max(n, 1), [])
    return out


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The transposed partition: its c-th part counts the parts above c."""
    cols = parts[0] if parts else 0
    return tuple(sum(1 for p in parts if p > c) for c in range(cols))


def tangent_weights(lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """Tangent weights at the fixed point of ``lam``, as (t1, t2) coefficient pairs.

    Each box contributes the hook pair (a+1, -l) and (-a, l+1); see the
    module docstring for how this pairing is pinned.
    """
    out: list[tuple[int, int]] = []
    conj = conjugate(lam)
    for r, p in enumerate(lam):
        for c in range(p):
            a = p - c - 1
            l = conj[c] - r - 1
            out.append((a + 1, -l))
            out.append((-a, l + 1))
    return out


def taut_weights(lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """Monomial weights (c, r) of the tautological fiber, one per box."""
    return [(c, r) for r, p in enumerate(lam) for c in range(p)]


@dataclass(frozen=True)
class FixedPointData:
    """Weight data of one torus-fixed point."""

    tangent: tuple[tuple[int, int], ...]
    taut: tuple[tuple[int, int], ...]


def fixed_point_data(lam: tuple[int, ...]) -> FixedPointData:
    return FixedPointData(tuple(tangent_weights(lam)), tuple(taut_weights(lam)))


def ch_value(lam: tuple[int, ...], k: int) -> dict[tuple[int, int], Fraction]:
    """Chern character component ch_k of the tautological bundle at ``lam``,
    as the map ``(e1, e2) -> coefficient of t1^e1 t2^e2`` of its nonzero
    coefficients.

    Equals sum over boxes of (-(c*t1 + r*t2))^k / k!, with the dual sign
    because the fiber consists of functions.  ch_0 is the constant n.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    total: dict[tuple[int, int], int] = {}
    for (i, j) in taut_weights(lam):
        # (-(i*t1 + j*t2))^k expanded by the binomial theorem, times k!
        for a in range(k + 1):
            key = (a, k - a)
            total[key] = total.get(key, 0) + (-1) ** k * comb(k, a) * i ** a * j ** (k - a)
    kfac = factorial(k)
    return {e: Fraction(c, kfac) for e, c in total.items() if c}


def _inverse_euler(parts: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Scaled inverse of the tangent Euler class eps^P * slopes * D(eps) at t = 1.

    D is the product of the non-pole factors (a+b) + b*eps, known through
    eps^P, and ``slopes`` is the product of the P pole slopes b.  Returns
    (d0^(P+1) / D through eps^P, slopes * d0^(P+1)), d0 = D(0).  Uncached:
    :func:`_fixed_points` keeps the result in the table of n.
    """
    tangent = tangent_weights(parts)
    length = sum(1 for (a, b) in tangent if a + b == 0) + 1
    den = [1] + [0] * (length - 1)
    slopes = 1
    for (a, b) in tangent:
        w = a + b
        if w == 0:
            slopes *= b
            continue
        for j in range(length - 1, 0, -1):
            den[j] = den[j] * w + den[j - 1] * b
        den[0] *= w
    # the eps^j coefficient of 1/D has denominator d0^(j+1), so every sum
    # below is a multiple of d0 and the division by d0 is exact
    d0 = den[0]
    inv = [d0 ** (length - 1)]
    for j in range(1, length):
        inv.append(-sum(den[i] * inv[j - i] for i in range(1, j + 1)) // d0)
    return tuple(inv), slopes * d0 ** length


@lru_cache(maxsize=None)
def _fixed_points(n: int) -> tuple[tuple[tuple, ...], int]:
    """The kernel table of n: one row (parts, inv, common // local) per
    partition, in :func:`enumerate_partitions` order, and the shared
    denominator common, the lcm of every row's scale local.

    Unbounded: evicting tables made repeated brackets about four times
    slower, and a bound on the count of n bounds no bytes, since a cold
    ch_2 bracket keeps 0.2 MB of tables at n = 16 and 76 MB at n = 40.
    """
    rows = [(parts, *_inverse_euler(parts)) for parts in enumerate_partitions(n)]
    common = lcm(*(local for _, _, local in rows))
    return tuple((parts, inv, common // local) for parts, inv, local in rows), common


@lru_cache(maxsize=None)
def _ch_eps(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """k! * ch_k at t = 1 for each row of :func:`_fixed_points`, aligned
    with it: the box sum of (-(c+r) - r*eps)^k through eps^P, a factor
    that brackets multiply into the row's inverse Euler class."""
    out = []
    for parts, inv, _ in _fixed_points(n)[0]:
        ch = [0] * len(inv)
        for (c, r) in taut_weights(parts):
            d = -(c + r)
            for j in range(min(k, len(inv) - 1) + 1):
                ch[j] += comb(k, j) * d ** (k - j) * (-r) ** j
        out.append(tuple(ch))
    return tuple(out)


def _mul_trunc(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two eps power series, truncated to the length of ``a``."""
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


BRACKET_CACHE_SIZE = 256


def hilb_integral(n: int, ks: Iterable[int] = ()) -> Monomial:
    """Integral of prod_i ch_{k_i} over the n-point Hilbert scheme of the
    plane, equivariant for the diagonal torus, as the monomial C * t^(K-2n).

    The empty insertion list gives 1/(n! t^(2n)).  The last
    BRACKET_CACHE_SIZE brackets are memoized; a Monomial is immutable, so
    callers may share the returned value.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _bracket(n, normalize_insertions(ks))


@lru_cache(maxsize=BRACKET_CACHE_SIZE)
def _bracket(n: int, ks: tuple[int, ...]) -> Monomial:
    rows, common = _fixed_points(n)
    # totals[m] / common is the coefficient of eps^-m
    totals = [0] * max(len(inv) for _, inv, _ in rows)
    for (_, s, factor), *chs in zip(rows, *(_ch_eps(n, k) for k in ks)):
        for ch in chs:
            s = _mul_trunc(s, ch)
        # the fixed point adds s_j / local to eps^(j-P), so totals[P - j]
        for m, sj in enumerate(reversed(s)):
            totals[m] += sj * factor
    if any(totals[1:]):
        raise LocalizationError("localization sum not regular on diagonal")
    scale = 1
    for k in ks:
        scale *= factorial(k)
    return Monomial(Fraction(totals[0], common * scale), sum(ks) - 2 * n)


def hilb_integral_via_limit(n: int, ks: Iterable[int] = ()) -> Monomial:
    """Cross-check path for :func:`hilb_integral`, avoiding eps-series entirely.

    Collects the full-torus sum of ch-products over tangent Euler classes as
    a single fraction of polynomials in (t1, t2), each a map
    ``(e1, e2) -> coefficient``, expands numerator and denominator around
    the diagonal t2 = t1 - delta, cancels the leading power of delta, and
    evaluates at delta = 0.  Slow (the common denominator is the product of
    all fixed-point Euler classes) but structurally independent of the
    factor-by-factor inversion.  The exponent of the result is the quotient
    of the leading t-powers, not K - 2n, so comparing with the kernel checks
    the degree too.
    """
    def mul(p: dict, q: dict) -> dict:
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, a2), c1 in p.items():
            for (b1, b2), c2 in q.items():
                key = (a1 + b1, a2 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    def near_diagonal(p: dict) -> dict[int, dict[int, Fraction]]:
        """p at t1 = t, t2 = t - delta as {delta power: {t power: coeff}},
        without zero coefficients or empty rows."""
        rows: dict[int, dict[int, Fraction]] = {}
        for (e1, e2), c in p.items():
            for j in range(e2 + 1):
                row = rows.setdefault(j, {})
                row[e1 + e2 - j] = row.get(e1 + e2 - j, 0) + c * comb(e2, j) * (-1) ** j
        rows = {j: {e: c for e, c in row.items() if c} for j, row in rows.items()}
        return {j: row for j, row in rows.items() if row}

    if n < 1:
        raise ValueError("n must be >= 1")
    ks = normalize_insertions(ks)
    num: dict[tuple[int, int], Fraction] = {}
    den = {(0, 0): 1}
    for lam in enumerate_partitions(n):
        nl = {(0, 0): 1}
        for k in ks:
            nl = mul(nl, ch_value(lam, k))
        dl = {(0, 0): 1}
        for (a, b) in tangent_weights(lam):
            dl = mul(dl, {(1, 0): a, (0, 1): b})
        num = mul(num, dl)
        for e, c in mul(nl, den).items():
            num[e] = num.get(e, 0) + c
        den = mul(den, dl)
    num_d = near_diagonal(num)
    den_d = near_diagonal(den)
    v = min(den_d)
    if any(j < v for j in num_d):
        raise LocalizationError("localization sum not regular on diagonal")
    lead_num, lead_den = num_d.get(v, {}), den_d[v]
    if len(lead_den) != 1 or len(lead_num) > 1:
        raise LocalizationError("leading diagonal coefficient is not a monomial")
    (e, c), = lead_den.items()
    for e1, c1 in lead_num.items():
        return Monomial(Fraction(c1, c), e1 - e)
    return Monomial(0, 0)
