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

Second, the dilaton step for brackets of psi and psi-tilde insertions on
the full Fulton-MacPherson space of a d-dimensional variety, with the top
Chern class of the variety kept as the formal symbol c_d: a trailing bare
psi-tilde insertion comes off as the factor (-1)^d * (c_d - n), n the
number of remaining insertions.  Values are
:class:`~hilbwall.exact.LaurentPoly` polynomials in the variable ``c{d}``
(c1, c2 or c3), so polynomials of different dimensions never mix.  The
empty bracket is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

from .exact import ExactError, LaurentPoly


def tn_integral(n: int, a: int, b: int) -> Fraction:
    """The integral of psi1^a * psi_inf^b over T_n, exact."""
    if n < 2:
        raise ValueError("the tree locus T_n needs n >= 2")
    if a < 0 or b < 0:
        raise ValueError("psi powers must be nonnegative")
    if a + b != 2 * n - 3:
        return Fraction(0)
    return Fraction((-1) ** ceil(a / 2) * comb(n - 2, a // 2))


@dataclass(frozen=True)
class Insertion:
    """One bracket slot: an optional tilde and a psi power."""

    has_tilde: bool = False
    psi_power: int = 0

    def __post_init__(self):
        if self.psi_power < 0:
            raise ValueError("psi power must be nonnegative")


TILDE = Insertion(has_tilde=True)


@dataclass(frozen=True)
class FMExpr:
    """A formal bracket of insertions on the Fulton-MacPherson space of a
    d-dimensional variety."""

    d: int
    insertions: tuple[Insertion, ...] = ()

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        object.__setattr__(self, "insertions", tuple(self.insertions))

    @property
    def bracket_size(self) -> int:
        return len(self.insertions)


def dilaton_step(e: FMExpr) -> tuple[LaurentPoly, FMExpr]:
    """Remove a trailing bare tilde insertion.

    The last insertion must be exactly (tilde, psi^0); it comes off as the
    factor (-1)^d * (c_d - n) with n the size of the reduced bracket.
    """
    if not e.insertions:
        raise ExactError("dilaton not applicable: empty bracket")
    last = e.insertions[-1]
    if last != TILDE:
        raise ExactError("dilaton not applicable: last insertion is not a bare tilde")
    n = e.bracket_size - 1
    sign = (-1) ** e.d
    factor = LaurentPoly(f"c{e.d}", {1: sign, 0: -sign * n})
    return factor, FMExpr(e.d, e.insertions[:-1])


def reduce_pure_tilde(k: int, d: int) -> LaurentPoly:
    """Value of the bracket of k bare tilde insertions, by repeated dilaton
    steps down to the empty bracket (which is 1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    expr = FMExpr(d, (TILDE,) * k)
    value = LaurentPoly.constant(1, f"c{d}")
    while expr.bracket_size:
        factor, expr = dilaton_step(expr)
        value = value * factor
    return value
