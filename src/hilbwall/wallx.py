"""Wall-crossing engines.

Three layers:

* Combinatorial term expanders, whose terms are plain tuples.  Crossing
  the single wall at 1/n0 sums over k >= 1 factors (k * n0 <= n) and
  ordered distributions of the insertion indices into a retained set and
  k blocks; a term is ``(k, retained, blocks)``.  Crossing every wall at
  once sums over ordered compositions of n into positive blocks, each
  insertion assigned to one block; a term is its tuple of blocks
  ``(size, insertions)``.  A term with k blocks weighs 1/k!, which a
  caller computes from k = ``len(blocks)``.

* The ch_k series pipeline.  Every nonpolar one-end contribution C * u^a
  seeds one stratum sum, and :func:`ch_series` restricts it to each fixed
  stratum by substituting for u directly: on the one-point stratum u -> t,
  divided by the normal weight t^2, contributes C * t^(a-2) * q^n; on the
  tree locus T_N, u -> -psi1 and the normal Euler class
  t^2 * (t - psi_inf) is expanded as
  1/(t^2 (t - psi_inf)) = sum_j psi_inf^j t^(-3-j), of which only
  j = 2N - 3 - a survives the dimension of T_N, contributing

      C * (-1)^a * int_{T_N} psi1^a psi_inf^j * t^(a - 2N) * q^(n+N-1) / (N-1)!

  The series' q^n coefficient is <ch_k>_n; check 4 of the verification
  suite compares it with localization's exp(q) C_k to q^200 for k <= 20.

* Euler-characteristic series.  In dimensions one, two and three the
  wall-crossing collapses to 1 + sum_k C(c_d, k) (F(q) - 1)^k, with F =
  1/(1-q), the partition-counting Euler product or the signed MacMahon
  function M(-q), the degree-zero Donaldson-Thomas series of C^3.  The FM
  side C(c_d, k) is the dilaton closure of k tilde insertions, read from
  :func:`hilbwall.fmcalc.pure_tilde_closures` at c_d = c.  The closed power
  F^c of each product F = prod_m (1 - (+-q)^m)^(-e(m)) follows from its
  log-derivative by one integer recurrence; the sum reads it only at c = 1.

A q-series is a plain list with the q^n coefficient at index n, so a
truncated series never equals a longer one.
"""

from __future__ import annotations

from itertools import islice, product
from math import factorial
from operator import index
from typing import Iterator

from .exact import ExactError, Monomial
from .fmcalc import pure_tilde_closures, tn_integral
from .ifun import nonpolar_ifunction


def _distribute(m: int, slots: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every placement of the insertions 0..m-1 into ``slots`` ordered slots,
    each slot listing its insertions in increasing order."""
    for assignment in product(range(slots), repeat=m):
        yield tuple(tuple(i for i, s in enumerate(assignment) if s == b)
                    for b in range(slots))


def expand_wall_terms(n: int, num_insertions: int, n0: int) -> list[tuple]:
    """All terms of the wall-crossing at 1/n0 for a size-n bracket, as
    ``(k, retained, blocks)``: k end components of weight n0 (k * n0 <= n),
    the retained insertions and k ordered blocks.  A term weighs 1/k!."""
    if not 1 <= n0 <= n:
        raise ValueError("the wall needs 1 <= n0 <= n")
    if num_insertions < 0:
        raise ValueError("num_insertions must be nonnegative")
    return [(k, slots[0], slots[1:])
            for k in range(1, n // n0 + 1)
            for slots in _distribute(num_insertions, k + 1)]


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of n into positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def expand_full_crossing(n: int, num_insertions: int) -> list[tuple]:
    """All terms of the crossing from the Hilbert side to the FM side, each a
    tuple of blocks ``(size, insertions)``: an ordered composition of n with
    every insertion in one block.  A term of k blocks weighs 1/k!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if num_insertions < 0:
        raise ValueError("num_insertions must be nonnegative")
    return [tuple(zip(sizes, slots))
            for sizes in _compositions(n)
            for slots in _distribute(num_insertions, len(sizes))]


def ch_series(k: int, q_order: int) -> list[Monomial]:
    """Generating series of <ch_k>_n over all n, assembled from the finitely
    many nonpolar one-end contributions via the stratum sums described in
    the module docstring: the q^n coefficient, one Fraction times t^(k - 2n),
    sits at index n.  A seed C * u^a at n puts every stratum term at q^m on
    t^(k - 2m) exactly when a = k - 2n + 2; any other a raises ExactError."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    sums = [0] * (q_order + 1)
    # a seed at n > q_order lands beyond the order on every stratum
    for n in range(1, min((k + 2) // 2, q_order) + 1):
        seed = nonpolar_ifunction(n, (k,))
        if seed.is_zero():
            continue
        c, a = seed.coeff, seed.exp
        if a != k - 2 * n + 2:
            raise ExactError(f"the ch_{k} seed at n={n} has degree {a}, not {k - 2 * n + 2}")
        # one-point stratum: u -> t, divided by the normal weight t^2
        sums[n] += c
        # tree loci: u -> -psi1, and 1/(t^2 (t - psi_inf)) = sum_j psi_inf^j
        # t^(-3-j), of which only j = 2N - 3 - a meets the dimension of T_N;
        # j >= 0 from N = (a + 4) // 2 on, where T_N weighs +-C(N-2, a//2) != 0
        for big_n in range(max(2, (a + 4) // 2), q_order - n + 2):
            j = 2 * big_n - 3 - a
            sums[n + big_n - 1] += c * (-1) ** a * tn_integral(big_n, a, j) / factorial(big_n - 1)
    return [Monomial(total, k - 2 * n) for n, total in enumerate(sums)]


def _log_derivative(d: int, q_order: int) -> list[int]:
    """The coefficients s_k of q F'/F = sum_{k>=1} s_k q^k, at index k <= q_order,
    for the dimension-d base F = prod_m (1 - (+-q)^m)^(-e(m)): e(m) is [m = 1],
    1 or m, so s_k = sum_{m | k} m e(m) is 1, sigma_1(k) or, by q -> -q,
    (-1)^k sigma_2(k).  A non-integer d raises TypeError."""
    d = index(d)
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2 or 3")
    s = [0] * (q_order + 1)
    for m in range(1, (1 if d == 1 else q_order) + 1):
        for k in range(m, q_order + 1, m):
            s[k] += m ** (d - 1)
    return [(-1) ** k * x for k, x in enumerate(s)] if d == 3 else s


def euler_series_wc(d: int, c: int, q_order: int) -> list[int]:
    """Euler-characteristic series 1 + sum_{k>=1} C(c, k) (F(q) - 1)^k by
    wall-crossing, in integers: C(c, k) from the FM side's dilaton closures,
    F the closed form at c = 1, the only power read, so the closed form at
    any other c is checked by an independent path.  A non-integer c raises
    the closed form's ExactError."""
    if not isinstance(c, int):
        raise ExactError("series power must be an integer")
    g = [0] + euler_series_closed(d, 1, q_order)[1:]  # F - 1
    total = [1] + [0] * q_order
    power = list(total)  # g^(k-1), which starts at q^(k-1)
    for k, closure in enumerate(islice(pure_tilde_closures(d), 1, q_order + 1), 1):
        value = 0
        for coeff in reversed(closure):  # Horner's rule at c_d = c
            value = value * c + coeff
        binom = (-1) ** (d * k) * value // factorial(k)  # C(c, k), an exact division
        if binom == 0:  # c >= 0 and k > c: so is every later C(c, k)
            break
        power = [0] * k + [sum(power[i] * g[n - i] for i in range(k - 1, n))
                           for n in range(k, q_order + 1)]
        for n in range(k, q_order + 1):
            total[n] += binom * power[n]
    return total


def euler_series_closed(d: int, c: int, q_order: int) -> list[int]:
    """Closed form F^c of the Euler-characteristic series, in integers: its
    log-derivative is c times that of F, so n a_n = c sum_{k=1..n} s_k a_(n-k)
    with a_0 = 1.  The coefficients are integers, so each division by n is
    exact; a nonzero remainder raises ExactError."""
    if not isinstance(c, int):
        raise ExactError("series power must be an integer")
    if q_order < 0:
        raise ValueError("q_order must be nonnegative")
    s = _log_derivative(d, q_order)
    out = [1]
    for n in range(1, q_order + 1):
        a, rem = divmod(c * sum(s[k] * out[n - k] for k in range(1, n + 1)), n)
        if rem:
            raise ExactError(f"the closed form has a non-integer coefficient at q^{n}")
        out.append(a)
    return out
