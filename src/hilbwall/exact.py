"""Exact arithmetic kernels: rationals and monomials.

Everything in this module is exact.  Rationals are ``fractions.Fraction``.
Every t- or u-valued result of the package is a single term
``C * t^e`` (a bracket, a series coefficient) or ``C * u^e`` (a one-end
contribution, u = t + z), so the one value type is :class:`Monomial`.

A monomial renders as ``0``, as the plain coefficient at exponent 0, as
``C*t`` at exponent 1 and as ``C*t^e`` otherwise, with rationals printed
as ``p/q`` (or plain ``p`` when the denominator is one), so rendered
output is byte stable and usable in golden tests.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class ExactError(ValueError):
    """Domain error in the exact-arithmetic layer."""


class Monomial(namedtuple("Monomial", "coeff exp var")):
    """The single term coeff * var^exp, with an exact coefficient.

    A zero coefficient forces exp = 0, so zeros of any degree compare
    equal.  Monomials do not add: ``+`` raises TypeError where the tuple
    would concatenate, so a sum is taken on the coefficients.  ``str()`` of
    a coefficient with more than 4,300 digits raises ValueError under
    Python's default int-string conversion limit; ``cli.run`` lifts it.
    """

    __slots__ = ()
    __add__ = None

    def __new__(cls, coeff: Fraction, exp: int, var: str = "t"):
        if type(coeff) is not Fraction:
            if isinstance(coeff, int):
                coeff = Fraction(coeff)
            elif not isinstance(coeff, Fraction):
                raise ExactError(f"not an exact scalar: {coeff!r}")
        return tuple.__new__(cls, (coeff, exp if coeff else 0, var))

    def is_zero(self) -> bool:
        return self.coeff == 0

    @property
    def terms(self) -> dict[int, Fraction]:
        """``{exp: coeff}``, empty for zero."""
        return {self.exp: self.coeff} if self.coeff else {}

    def __str__(self):
        if self.is_zero():
            return "0"
        if self.exp == 0:
            return str(self.coeff)
        if self.exp == 1:
            return f"{self.coeff}*{self.var}"
        return f"{self.coeff}*{self.var}^{self.exp}"

