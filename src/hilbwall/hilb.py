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
arithmetic.  Substitute t1 = t - eps, t2 = t + eps; every bracket is a
single monomial C * t^(K - 2n), K the total ch degree, so t = 1 loses
nothing, the kernel works with integer eps-series only, and the result is
a :class:`~hilbwall.exact.Monomial`.  At a fixed point with P pole
factors (tangent weights a*t1 + b*t2 whose diagonal part a + b vanishes)
the Euler class is eps^P times the product of the pole slopes b - a times
D, the product of the non-pole factors (a+b) + (b-a)*eps; the numerator
prod k_i! ch_{k_i} is the box sum of (-(c+r) + (c-r)*eps)^k.  Both are
known through eps^P.  One power-series division per fixed point gives
d0^(P+1) / D (d0 = D(0)), integral through eps^P, and the scale
local = slopes * d0^(P+1).

Swapping t1 and t2 maps the fixed point of a partition to that of its
transpose, and on this diagonal it is the swap eps -> -eps: a transposed
fixed point is its partition's term at -eps, and a transpose pair sums to
twice the even part of one term.  So the kernel table of n keeps one row
per transpose pair, for the partition with parts >= its conjugate: its
inverse and weight * common // local, weight 2 for a pair and 1 for a
self-conjugate partition.  common, the lcm of all the scales, is the one
denominator of the table; the ch table of (n, k) keeps the k! ch_k lists
aligned with its rows, each through eps^min(k, P).  A bracket needs the
even powers of eps of the sum of the rows' terms, factor * inv times the
product of the row's ch lists; the full sum has no odd powers.  It sums
them as integers over common, and the only Fraction is built at the end.
It takes one of two paths:

* packed, when the table is small: every eps-list is evaluated at
  eps = X = 2^bits (Kronecker substitution) and stored signed, each row
  shifted so that its eps^P sits at digit width - 1, width the longest
  inv.  A row's term is a few big-integer products mod X^width (a ring
  homomorphism, so the tables need no reduction), the sum over rows one
  ``sum``.  Half the base added to every digit makes it nonnegative, so
  one mask tests the pole digits width - 3, width - 5, ... at once and
  only the top digit, eps^0, is read.  The base is a proven bound: no
  coefficient of the untruncated sum exceeds sum_r |factor_r| *
  ||inv_r||_1 times the largest ||ch||_1 of each insertion, and
  2^(bits - 1) exceeds that.  It runs when bits * width <= PACKED_MAX_BITS;
* lists, otherwise: each row multiplies its ch lists through eps^P and
  reads each even power of inv times that product as one dot product.
  At large n, factor * inv fills every digit, so packing would cost more.

The sum is regular at eps = 0; a surviving negative power signals a
convention bug and raises :class:`LocalizationError`.  ch_0 is the rank
n, a factor :func:`hilb_integral` takes out before the memo.

The only caches are these tables, one per n and one per (n, k), each
carrying its norm, the packed rows per (n, bits) and packed ch lists per
(n, k, bits), and the brackets, all kept for the life of the process; a
bracket at n <= 8 costs about 0.3 kB.  Weight data is recomputed when
asked for.
bits is a multiple of 64, so few packed tables exist.  A table has (p(n)
+ sc(n)) / 2 rows, sc(n) the self-conjugate partitions; a cold ch_2
bracket at n = 40 runs the lists and peaks at 57 MB resident (CPython
3.11).

:func:`hilbwall.verify.offdiagonal_bracket` checks the kernel off the
diagonal; it reads only the partitions and the weight lists from here.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from itertools import repeat
from operator import and_, index, mul
from typing import Iterable, Sequence

from .exact import ExactError, Monomial


class LocalizationError(ExactError):
    """The fixed-point sum failed an exactness or regularity check."""


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, as parts tuples in reverse-lexicographic order,
    from (n,) to (1, ..., 1); n = 0 has the one partition ()."""
    n = index(n)  # a float n would run the loop on float parts
    if n < 0:
        raise ValueError("n must be nonnegative")
    parts = [n] if n else []
    out = [tuple(parts)]
    # the next partition pops the trailing ones, lowers the last part above 1
    # by one to top and spreads the freed ones + 1 as parts top and a remainder
    while len(parts) < n:
        ones = 0
        while parts[-1] == 1:
            parts.pop()
            ones += 1
        top = parts.pop() - 1
        count, rest = divmod(ones + 1, top)
        parts += [top] * (count + 1)
        if rest:
            parts.append(rest)
        out.append(tuple(parts))
    return out


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The transposed partition: its c-th part counts the parts above c."""
    out: list[int] = []
    # the columns parts[r] .. parts[r-1] - 1 have exactly r parts above
    # them, reading parts[len(parts)] as 0
    start = 0
    for r in range(len(parts), 0, -1):
        out += [r] * (parts[r - 1] - start)
        start = parts[r - 1]
    return tuple(out)


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


# Weight data of one torus-fixed point: its tangent and taut weight tuples.
FixedPointData = namedtuple("FixedPointData", "tangent taut")


def fixed_point_data(lam: tuple[int, ...]) -> FixedPointData:
    return FixedPointData(tuple(tangent_weights(lam)), tuple(taut_weights(lam)))


def _inverse_euler(parts: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Scaled inverse of the tangent Euler class eps^P * slopes * D(eps) at t = 1.

    D is the product of the non-pole factors (a+b) + (b-a)*eps, known
    through eps^P, and ``slopes`` is the product of the P pole slopes b - a;
    the transpose gives D(-eps) and (-1)^P slopes.  Returns
    (d0^(P+1) / D through eps^P, slopes * d0^(P+1)), d0 = D(0).  Uncached:
    :func:`_fixed_points` keeps the result in the table of n.
    """
    tangent = tangent_weights(parts)
    length = sum(1 for (a, b) in tangent if a + b == 0) + 1
    den = [1] + [0] * (length - 1)
    slopes = 1
    for (a, b) in tangent:
        w, slope = a + b, b - a
        if w == 0:
            slopes *= slope
            continue
        for j in range(length - 1, 0, -1):
            den[j] = den[j] * w + den[j - 1] * slope
        den[0] *= w
    # the eps^j coefficient of 1/D has denominator d0^(j+1), so every sum
    # below is a multiple of d0 and the division by d0 is exact
    d0 = den[0]
    inv = [d0 ** (length - 1)]
    for j in range(1, length):
        inv.append(-sum(den[i] * inv[j - i] for i in range(1, j + 1)) // d0)
    return tuple(inv), slopes * d0 ** length


@lru_cache(maxsize=None)
def _fixed_points(n: int) -> tuple[tuple[tuple, ...], int, int, int]:
    """The kernel table of n: one row (parts, inv, weight * common // local)
    per transpose pair of partitions, for the member with parts >=
    conjugate(parts), in :func:`enumerate_partitions` order; the weight is
    2 when the transpose is a different partition, which the row stands
    for, and 1 otherwise.  Then the shared denominator common, the lcm of
    every row's scale local; the width, the longest inv; and the table's
    norm, the sum over the rows of |factor| * ||inv||_1.

    Unbounded: evicting tables made repeated brackets about four times
    slower, and a bound on the count of n bounds no bytes, since a cold
    ch_2 bracket keeps 0.07 MB of tables at n = 16 and 37 MB at n = 40.
    """
    rows = [(parts, *_inverse_euler(parts)) for parts in enumerate_partitions(n)
            if parts >= conjugate(parts)]
    common = lcm(*(local for _, _, local in rows))
    table = tuple((parts, inv, (1 + (parts != conjugate(parts))) * common // local)
                  for parts, inv, local in rows)
    return (table, common, max(len(inv) for _, inv, _ in table),
            sum(abs(factor) * sum(map(abs, inv)) for _, inv, factor in table))


@lru_cache(maxsize=None)
def _ch_eps(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """k! * ch_k at t = 1 for each row of :func:`_fixed_points`, aligned
    with it: the box sum of (-(c+r) + (c-r)*eps)^k, a polynomial of degree
    k, through eps^min(k, P).  A bracket multiplies these and takes the
    product times the row's inverse Euler class; ch_0, the rank n, needs
    no table.  Then the table's norm, the largest ||ch||_1 of its lists."""
    out = []
    for parts, inv, _ in _fixed_points(n)[0]:
        ch = [0] * (min(k, len(inv) - 1) + 1)
        for (c, r) in taut_weights(parts):
            d = -(c + r)
            for j in range(len(ch)):
                ch[j] += comb(k, j) * d ** (k - j) * (c - r) ** j
        out.append(tuple(ch))
    return tuple(out), max(sum(map(abs, ch)) for ch in out)


def _mul_trunc(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """Product of two eps power series through eps^(length - 1), or through
    its top degree len(a) + len(b) - 2 if that is lower."""
    # a behind len(b) - 1 zeros, so that every coefficient is one dot
    # product with b reversed
    padded = [0] * (len(b) - 1)
    padded += a
    rev = b[::-1]
    return [sum(map(mul, padded[j:], rev)) for j in range(min(len(a) + len(b) - 1, length))]


def _pack(coeffs: Iterable[int], bits: int) -> int:
    """The eps-list at eps = 2^bits."""
    return sum(c << bits * i for i, c in enumerate(coeffs))


@lru_cache(maxsize=None)
def _packed_rows(n: int, bits: int) -> tuple[tuple[int, ...], int, int, int]:
    """Each row of :func:`_fixed_points` as factor * eps^(width - len(inv))
    * inv at eps = X = 2^bits, a signed integer: eps^(P - 2m) of every row
    sits at digit width - 1 - 2m.  Then the mask X^width - 1, the offset (half
    at every digit) and the check (digits width - 3, width - 5, ...)."""
    rows, _, width, _ = _fixed_points(n)
    digit, half = (1 << bits) - 1, 1 << bits - 1
    mask = (1 << bits * width) - 1
    return (tuple(factor * _pack(inv, bits) << bits * (width - len(inv))
                  for _, inv, factor in rows), mask, mask // digit * half,
            sum(digit << bits * j for j in range(width - 3, -1, -2)))


@lru_cache(maxsize=None)
def _packed_ch(n: int, k: int, bits: int) -> tuple[int, ...]:
    """The lists of :func:`_ch_eps` at eps = 2^bits, signed, as the rows."""
    return tuple(_pack(ch, bits) for ch in _ch_eps(n, k)[0])


# The largest bits * width that _bracket packs.  Warm brackets on both
# paths, n = 4..24 times 14 insertion shapes up to four indices <= 20
# (best of 14, CPython 3.11, 2 vCPUs), packed/list time: every one of the
# 122 shapes at or below 1,536 bits ran faster packed (0.09 - 0.77), the
# 25 shapes from 1,537 to 2,048 bits were mixed (0.07 - 1.20), and above
# that packing mostly lost, by up to 6.4 times.
PACKED_MAX_BITS = 1536


def hilb_integral(n: int, ks: Iterable[int] = ()) -> Monomial:
    """Integral of prod_i ch_{k_i} over the n-point Hilbert scheme of the
    plane, equivariant for the diagonal torus, as the monomial C * t^(K-2n).

    The empty insertion list gives 1/(n! t^(2n)).  A non-integer n or
    index raises TypeError, whatever the caches hold.  Every bracket is
    memoized for the life of the process, once for all its ch_0 pads; a
    Monomial is immutable, so callers may share the returned value.
    """
    # index() rejects 3.0, which would otherwise hit a cached (3, ...) bracket
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    ks = tuple(sorted(map(index, ks)))
    if ks and ks[0] < 0:
        raise ValueError("ch indices must be nonnegative")
    zeros = ks.count(0)  # ch_0 is the rank n at every fixed point
    v = _bracket(n, ks[zeros:])
    c = v.coeff  # one constructor call: Fraction * int takes twice as long
    return Monomial(Fraction(c.numerator * n ** zeros, c.denominator), v.exp) if zeros else v


@lru_cache(maxsize=None)
def _bracket(n: int, ks: tuple[int, ...]) -> Monomial:
    rows, common, width, bound = _fixed_points(n)
    # Each coefficient of the row sum S = sum_r factor_r * eps^(width -
    # len(inv_r)) * inv_r * prod_k ch_k,r, untruncated, is at most
    # sum_r |factor_r| * ||inv_r||_1 * prod_k ||ch_k,r||_1 <= bound, as
    # ||a * b||_1 <= ||a||_1 * ||b||_1; so |digit| <= bound < 2^(bits - 1),
    # and S at eps = 2^bits, mod 2^(bits * width), keeps every coefficient
    # below eps^width as one signed base-2^bits digit
    chs = [_ch_eps(n, k) for k in ks]
    for _, norm in chs:
        bound *= norm
    bits = -(-(bound.bit_length() + 2) // 64) * 64
    # total / common is the eps^0 coefficient; poles is nonzero if a pole survives
    if bits * width <= PACKED_MAX_BITS:
        p, mask, offset, check = _packed_rows(n, bits)
        for k in ks:
            p = map(and_, map(mul, p, _packed_ch(n, k, bits)), repeat(mask))
        # with the offset every digit is nonnegative, and a zero one is offset's
        s = (sum(p) + offset) & mask
        top = bits * (width - 1)
        poles, total = (s ^ offset) & check, (s >> top) - (offset >> top)
    else:
        totals = [0] * width
        for (_, inv, factor), *row in zip(rows, *(lists for lists, _ in chs)):
            c = row[0] if row else (1,)
            for ch in row[1:]:
                c = _mul_trunc(c, ch, len(inv))
            # the fixed point adds (inv * c)_j / local to eps^(j-P), and
            # with its transpose only the even powers, so (inv * c)_(P-2m)
            # goes to totals[m]
            for m, j in enumerate(range(len(inv) - 1, -1, -2)):
                totals[m] += factor * sum(map(mul, c[:j + 1], inv[j::-1]))
        poles, total = any(totals[1:]), totals[0]
    if poles:
        raise LocalizationError("localization sum not regular on diagonal")
    if not total:  # no k! for a zero bracket: factorial(10**6) takes seconds
        return Monomial(0, 0)
    scale = 1
    for k in ks:
        scale *= factorial(k)
    return Monomial(Fraction(total, common * scale), sum(ks) - 2 * n)

