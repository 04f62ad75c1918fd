"""Wall-crossing engines.

Three layers:

* Combinatorial term expanders.  Crossing the single wall at 1/n0 sums
  over k >= 1 factors (k * n0 <= n) and ordered distributions of the
  insertion indices into a retained set and k blocks, weighted by 1/k!.
  Crossing every wall at once sums over ordered compositions of n into
  positive blocks, each insertion assigned to one block.

* The ch_k series pipeline.  Every nonpolar one-end contribution C * u^a
  seeds one stratum sum, and :func:`ch_series` restricts it to each fixed
  stratum by substituting for u directly: on the one-point stratum u -> t,
  divided by the normal weight t^2, contributes C * t^(a-2) * q^n; on the
  tree locus T_N, u -> -psi1 and the normal Euler class
  t^2 * (t - psi_inf) is expanded as
  1/(t^2 (t - psi_inf)) = sum_j psi_inf^j t^(-3-j), of which only
  j = 2N - 3 - a survives the dimension of T_N, contributing

      C * (-1)^a * int_{T_N} psi1^a psi_inf^j * t^(a - 2N) * q^(n+N-1) / (N-1)!

  The q^n coefficient of the assembled series reproduces the direct
  localization value of <ch_k>_n for every n, which the verification
  suite checks exactly.

* Euler-characteristic generating series.  In dimensions one and two the
  wall-crossing collapses to 1 + sum_k C(c_d, k) (F(q) - 1)^k with
  F = 1/(1-q) or the partition-counting Euler product, matching the
  closed forms (1/(1-q))^c (Macdonald) and f(q)^c (Goettsche).  In
  dimension three the same mechanism is the substitution identity
  exp(c * log M(-q)) = M(-q)^c for the MacMahon function, checked by
  :func:`dt_identity_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Iterator

from .exact import Monomial, qs_exp, qs_log, qs_pow_int, \
    euler_inverse_series, macmahon_series
from .fmcalc import tn_integral
from .ifun import nonpolar_ifunction


@dataclass(frozen=True)
class WallTerm:
    """One summand of a single-wall crossing: k end components of weight n0,
    a retained insertion set and k ordered blocks."""

    k: int
    retained: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    n_prime: int

    @property
    def symmetry_factor(self) -> Fraction:
        return Fraction(1, factorial(self.k))


@dataclass(frozen=True)
class FullCrossingTerm:
    """One summand of the full crossing: an ordered composition of n with
    the insertions distributed over the blocks."""

    blocks: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def symmetry_factor(self) -> Fraction:
        return Fraction(1, factorial(self.k))


def expand_wall_terms(n: int, num_insertions: int, n0: int) -> list[WallTerm]:
    """All terms of the wall-crossing at 1/n0 for a size-n bracket."""
    if not 1 <= n0 <= n:
        raise ValueError("the wall needs 1 <= n0 <= n")
    if num_insertions < 0:
        raise ValueError("num_insertions must be nonnegative")
    out: list[WallTerm] = []
    for k in range(1, n // n0 + 1):
        n_prime = n - k * n0
        # slot 0 is the retained set N'; slots 1..k are the blocks
        for assignment in product(range(k + 1), repeat=num_insertions):
            retained = tuple(i for i, s in enumerate(assignment) if s == 0)
            blocks = tuple(
                tuple(i for i, s in enumerate(assignment) if s == b)
                for b in range(1, k + 1))
            out.append(WallTerm(k, retained, blocks, n_prime))
    return out


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of n into positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def expand_full_crossing(n: int, num_insertions: int) -> list[FullCrossingTerm]:
    """All terms of the crossing from the Hilbert side to the FM side."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if num_insertions < 0:
        raise ValueError("num_insertions must be nonnegative")
    out: list[FullCrossingTerm] = []
    for sizes in _compositions(n):
        k = len(sizes)
        for assignment in product(range(k), repeat=num_insertions):
            blocks = tuple(
                (sizes[b], tuple(i for i, s in enumerate(assignment) if s == b))
                for b in range(k))
            out.append(FullCrossingTerm(blocks))
    return out


def ch_series(k: int, q_order: int) -> list[Monomial]:
    """Generating series of <ch_k>_n over all n, assembled from the finitely
    many nonpolar one-end contributions via the stratum sums described in
    the module docstring: the q^n coefficient, a monomial in t, sits at
    index n.  Each stratum term carries the exponent its own restriction
    gives, and adding terms of different degrees raises ExactError."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    coeffs = [Monomial(0, 0)] * (q_order + 1)
    # a seed at n > q_order lands beyond the order on every stratum
    for n in range(1, min((k + 2) // 2, q_order) + 1):
        seed = nonpolar_ifunction(n, (k,))
        if seed.is_zero():
            continue
        c, a = seed.coeff, seed.exp
        # one-point stratum: u -> t, divided by the normal weight t^2
        coeffs[n] = coeffs[n] + Monomial(c, a - 2)
        # tree loci: u -> -psi1, and 1/(t^2 (t - psi_inf)) = sum_j psi_inf^j
        # t^(-3-j), of which only j = 2N - 3 - a meets the dimension of T_N
        for big_n in range(2, q_order - n + 2):
            j = 2 * big_n - 3 - a
            if j < 0:
                continue
            weight = tn_integral(big_n, a, j)
            if weight == 0:
                continue
            scale = c * (-1) ** a * weight / factorial(big_n - 1)
            idx = n + big_n - 1
            coeffs[idx] = coeffs[idx] + Monomial(scale, -3 - j)
    return coeffs


def _base_series(d: int, q_order: int) -> list[int]:
    if d == 1:
        return [1] * (q_order + 1)  # 1/(1-q)
    if d == 2:
        return euler_inverse_series(q_order)
    raise ValueError("d must be 1 or 2")


def euler_series_wc(d: int, c: int, q_order: int) -> list[int]:
    """Euler-characteristic series by wall-crossing:
    1 + sum_{k>=1} C(c, k) (F(q) - 1)^k with F the d-dependent base, summed
    in integers; no qs_* routine runs, so the closed form is checked by an
    independent path."""
    if q_order < 0:
        raise ValueError("q_order must be nonnegative")
    g = [0] + _base_series(d, q_order)[1:]  # F - 1
    total = [1] + [0] * q_order
    power = list(total)  # g^(k-1), which starts at q^(k-1)
    binom = 1
    for k in range(1, q_order + 1):
        binom = binom * (c - k + 1) // k  # C(c, k), an exact division
        power = [0] * k + [sum(power[i] * g[n - i] for i in range(k - 1, n))
                           for n in range(k, q_order + 1)]
        for n in range(k, q_order + 1):
            total[n] += binom * power[n]
    return total


def euler_series_closed(d: int, c: int, q_order: int) -> list[Fraction]:
    """Closed form of the Euler-characteristic series: the d-dependent base
    series raised to the integer power c."""
    if q_order < 0:
        raise ValueError("q_order must be nonnegative")
    return qs_pow_int(_base_series(d, q_order), c)


def dt_identity_check(c: int, q_order: int) -> bool:
    """Check the dimension-three substitution identity
    exp(c * log M(-q)) = M(-q)^c for the MacMahon function M."""
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    m_neg = [(-1) ** n * m for n, m in enumerate(macmahon_series(q_order))]
    lhs = qs_exp([c * x for x in qs_log(m_neg)])
    rhs = qs_pow_int(m_neg, c)
    return lhs == rhs
