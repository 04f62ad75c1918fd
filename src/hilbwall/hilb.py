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
Euler class is eps^P times the product of the pole slopes b
times the non-pole factors (a+b) + b*eps; the numerator prod k_i! ch_{k_i}
is the box sum of (-(c+r) - r*eps)^k, multiplied out.  Both are known
through eps^P, and one power-series division, exact in integers once
scaled by slopes * d0^(P+1) (d0 the constant term of D), gives the
contribution to eps^-P .. eps^0.  The partitions are summed as integers
over one shared denominator, the lcm of these scales, and the only
Fraction is built at the end.  The sum is regular at eps = 0; surviving
negative powers signal a convention bug and raise
:class:`LocalizationError`.  The only caches are the two integer
eps-lists per fixed point, keyed by the parts tuple, and the last
BRACKET_CACHE_SIZE brackets; weight data is recomputed when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterable

from .exact import BivarPoly, ExactError, Monomial


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


def ch_value(lam: tuple[int, ...], k: int) -> BivarPoly:
    """Chern character component ch_k of the tautological bundle at ``lam``.

    Equals sum over boxes of (-(c*t1 + r*t2))^k / k!, with the dual sign
    because the fiber consists of functions.  ch_0 is the constant n.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = BivarPoly.zero()
    kfac = factorial(k)
    for (i, j) in taut_weights(lam):
        # (-(i*t1 + j*t2))^k expanded by the binomial theorem; BivarPoly drops zeros
        terms = {(a, k - a): Fraction((-1) ** k * comb(k, a) * i ** a * j ** (k - a), kfac)
                 for a in range(k + 1)}
        total = total + BivarPoly(terms)
    return total


@lru_cache(maxsize=None)
def _euler_eps(parts: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Tangent Euler class at t = 1, split as eps^P * slopes * D(eps).

    D is the product of the non-pole factors (a+b) + b*eps, known through
    eps^P, and ``slopes`` is the product of the P pole slopes b.  Returns
    (D coefficients, slopes).
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
    return tuple(den), slopes


@lru_cache(maxsize=None)
def _ch_eps(parts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """k! * ch_k at t = 1: the box sum of (-(c+r) - r*eps)^k through eps^P."""
    poles = len(_euler_eps(parts)[0]) - 1
    out = [0] * (poles + 1)
    for (c, r) in taut_weights(parts):
        d = -(c + r)
        for j in range(min(k, poles) + 1):
            out[j] += comb(k, j) * d ** (k - j) * (-r) ** j
    return tuple(out)


def _mul_trunc(a: list[int], b: tuple[int, ...]) -> list[int]:
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
    totals = [0]  # totals[m] / common is the coefficient of eps^-m
    common = 1
    for parts in enumerate_partitions(n):
        den, slopes = _euler_eps(parts)
        poles = len(den) - 1
        num = [1] + [0] * poles
        for k in ks:
            num = _mul_trunc(num, _ch_eps(parts, k))
        if not any(num):
            continue
        # N/D = sum_j s_j / d0^(P+1) * eps^j with integer s_j; every s_i with
        # i < P is a multiple of d0, so the division by d0 is exact
        d0 = den[0]
        top = d0 ** poles
        s: list[int] = []
        for j, nj in enumerate(num):
            acc = 0
            for i in range(1, j + 1):
                acc += den[i] * s[j - i]
            s.append(nj * top - acc // d0)
        # the fixed point adds s_j / local to eps^(j-P)
        local = slopes * top * d0
        grown = lcm(common, local)
        if grown != common:
            totals = [t * (grown // common) for t in totals]
            common = grown
        totals.extend([0] * (poles + 1 - len(totals)))
        factor = common // local
        for j, sj in enumerate(s):
            totals[poles - j] += sj * factor
    if any(totals[1:]):
        raise LocalizationError("localization sum not regular on diagonal")
    scale = 1
    for k in ks:
        scale *= factorial(k)
    return Monomial(Fraction(totals[0], common * scale), sum(ks) - 2 * n)


def hilb_integral_via_limit(n: int, ks: Iterable[int] = ()) -> Monomial:
    """Cross-check path for :func:`hilb_integral`, avoiding eps-series entirely.

    Collects the full-torus sum of ch-products over tangent Euler classes as
    a single fraction of bivariate polynomials, expands numerator and
    denominator around the diagonal t2 = t1 - delta, cancels the leading
    power of delta, and evaluates at delta = 0.  Slow (the common
    denominator is the product of all fixed-point Euler classes) but
    structurally independent of the factor-by-factor inversion.  The
    exponent of the result is the quotient of the leading t-powers, not
    K - 2n, so comparing with the kernel checks the degree too.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ks = normalize_insertions(ks)
    num = BivarPoly.zero()
    den = BivarPoly.constant(1)
    for lam in enumerate_partitions(n):
        nl = BivarPoly.constant(1)
        for k in ks:
            nl = nl * ch_value(lam, k)
        dl = BivarPoly.constant(1)
        for (a, b) in tangent_weights(lam):
            dl = dl * BivarPoly.linear(a, b)
        num = num * dl + nl * den
        den = den * dl
    num_d = num.expand_near_diagonal()
    den_d = den.expand_near_diagonal()
    v = min(den_d)
    if any(j < v for j in num_d):
        raise LocalizationError("localization sum not regular on diagonal")
    lead_num, lead_den = num_d.get(v, {}), den_d[v]
    if len(lead_den) != 1 or len(lead_num) > 1:
        raise LocalizationError("leading diagonal coefficient is not a monomial")
    (e, c), = lead_den.items()
    for e1, c1 in lead_num.items():
        return Monomial(c1 / c, e1 - e)
    return Monomial(0, 0)
