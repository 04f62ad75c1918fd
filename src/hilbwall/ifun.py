"""Localized one-end contributions (I-functions) for the diagonal torus.

The bracket <prod ch>_n(t) is a homogeneous Laurent monomial C * t^(K - 2n)
with K the total ch degree.  Shifting the torus weight by the scaling
weight, u := t + z, and multiplying by the equivariant Euler factor
(t + z)^2 of the plane gives the one-end contribution

    I_n(z, prod ch) = C * u^(K - 2n + 2).

Expanded in the range |z| > |t|, a power u^e with e < 0 has only negative
z-powers, so the nonpolar part is C * u^e when e >= 0 and zero otherwise.
Restricting a nonpolar contribution to a torus-fixed stratum is a single
substitution: on the one-point stratum (the plane itself, where the psi
class vanishes) u goes to t; on the tree locus T_N the marking psi class
enters through u -> -psi1.  Both substitutions are made inline in
:func:`hilbwall.wallx.ch_series`, where the stratum sums are assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exact import LaurentPoly
from .hilb import hilb_integral, normalize_insertions


@dataclass(frozen=True)
class UMonomial:
    """A one-end contribution C * u^exp in the shifted variable u = t + z."""

    coeff: Fraction
    exp: int

    @classmethod
    def zero(cls) -> "UMonomial":
        return cls(Fraction(0), 0)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def as_laurent(self, var: str = "u") -> LaurentPoly:
        if self.is_zero():
            return LaurentPoly.zero(var)
        return LaurentPoly.monomial(var, self.exp, self.coeff)


def nonpolar_ifunction(n: int, ks: Iterable[int] = ()) -> UMonomial:
    """Nonpolar part of I_n(z, prod ch_{k_i}) as a u-monomial.

    Zero exactly when the bracket vanishes or K < 2n - 2 (the exponent
    K - 2n + 2 would be negative, leaving only polar terms).
    """
    ks = normalize_insertions(ks)
    bracket = hilb_integral(n, ks)
    if bracket.is_zero():
        return UMonomial.zero()
    deg = bracket.homogeneous_degree()
    if deg is None or deg != sum(ks) - 2 * n:
        raise AssertionError(f"bracket {bracket} is not the expected monomial")
    exp = deg + 2
    if exp < 0:
        return UMonomial.zero()
    return UMonomial(bracket.coefficient(deg), exp)
