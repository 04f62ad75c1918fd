"""Psi-class calculus on the Fulton-MacPherson side.

Two independent pieces live here.  First, closed-form integrals over the
tree locus T_N (N points on a tree of bubbles over the origin of the
plane), which carries a marking class psi1 and an attachment class
psi_inf:

    int_{T_N} psi1^a * psi_inf^b = (-1)^ceil(a/2) * C(N-2, floor(a/2))

whenever a + b = 2N - 3 (the dimension of T_N), and zero otherwise.
Squares of psi classes are removed pairwise down to the two base values
int_{T_2} psi1 = -1 and int_{T_2} psi_inf = 1; removing psi1^2 flips the
sign while removing psi_inf^2 does not, which is exactly the Pascal-style
recursion tested in the verification suite.  The one-end contributions
reach these integrals through the substitution u -> -psi1, which
:func:`hilbwall.wallx.ch_series` applies where it sums over the T_N.

Second, the dilaton reduction of pure psi-tilde brackets on the full
Fulton-MacPherson space of a d-dimensional variety, with the top Chern
class of the variety kept as the formal symbol c_d: each bare psi-tilde
insertion comes off as the factor (-1)^d * (c_d - m), m the number of
insertions left after it, so k of them give a falling factorial in c_d.
A polynomial in c_d is an int list of its coefficients in ascending
powers of c_d, as the q-series are.  The empty bracket is [1].
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb


def tn_integral(n: int, a: int, b: int) -> Fraction:
    """The integral of psi1^a * psi_inf^b over T_n, exact."""
    if n < 2:
        raise ValueError("the tree locus T_n needs n >= 2")
    if a < 0 or b < 0:
        raise ValueError("psi powers must be nonnegative")
    if a + b != 2 * n - 3:
        return Fraction(0)
    return Fraction((-1) ** ceil(a / 2) * comb(n - 2, a // 2))


def reduce_pure_tilde(k: int, d: int) -> list[int]:
    """Value of the bracket of k bare tilde insertions on the FM space of a
    d-dimensional variety: the product of the dilaton factors
    (-1)^d * (c_d - m) for m = k-1 .. 0, down to the empty bracket 1, as
    its coefficients in ascending powers of c_d."""
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if k < 0:
        raise ValueError("k must be nonnegative")
    sign = (-1) ** d
    value = [1]
    for m in range(k - 1, -1, -1):
        # the coefficient of c_d^i in sign * (c_d - m) * value
        value = [sign * (lower - m * same)
                 for same, lower in zip(value + [0], [0] + value)]
    return value
