"""Localized one-end contributions (I-functions) for the diagonal torus.

The bracket <prod ch>_n(t) is a homogeneous Laurent monomial C * t^(K - 2n)
with K the total ch degree.  Shifting the torus weight by the scaling
weight, u := t + z, and multiplying by the equivariant Euler factor
(t + z)^2 of the plane gives the one-end contribution

    I_n(z, prod ch) = C * u^(K - 2n + 2).

Expanded in the range |z| > |t|, a power u^e with e < 0 has only negative
z-powers, so the nonpolar part is C * u^e when e >= 0 and zero otherwise;
it is returned as a :class:`~hilbwall.exact.Monomial` in the variable u.
Restricting a nonpolar contribution to a torus-fixed stratum is a single
substitution: on the one-point stratum (the plane itself, where the psi
class vanishes) u goes to t; on the tree locus T_N the marking psi class
enters through u -> -psi1.  Both substitutions are made inline in
:func:`hilbwall.wallx.ch_series`, where the stratum sums are assembled.
"""

from __future__ import annotations

from typing import Iterable

from .exact import Monomial
from .hilb import hilb_integral


def nonpolar_ifunction(n: int, ks: Iterable[int] = ()) -> Monomial:
    """Nonpolar part of I_n(z, prod ch_{k_i}) as a u-monomial.

    Zero exactly when the bracket vanishes or K < 2n - 2 (the exponent
    K - 2n + 2 would be negative, leaving only polar terms).
    """
    bracket = hilb_integral(n, ks)
    exp = bracket.exp + 2
    # a zero coefficient forces the exponent to 0, so a vanishing bracket
    # gives the zero u-monomial whatever its degree
    return Monomial(bracket.coeff if exp >= 0 else 0, exp, "u")
