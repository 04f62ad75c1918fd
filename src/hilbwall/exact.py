"""Exact arithmetic kernels: rationals, monomials, and truncated power
series in q.

Everything in this module is exact.  Rationals are ``fractions.Fraction``.
Every t- or u-valued result of the package is a single term
``C * t^e`` (a bracket, a series coefficient) or ``C * u^e`` (a one-end
contribution, u = t + z), so the one value type is :class:`Monomial`; a
bivariate polynomial in (t1, t2) is a map ``(e1, e2) -> Fraction`` with
nonnegative exponents, used by the rational-limit cross-check of the
localization kernel.  A power series in q is a plain list: the q^n
coefficient sits at index n, the series is known through order
``len - 1``, and two series are equal only when their lists are, so a
truncated series never equals a longer one.  Partition and
plane-partition counts are int lists; integer powers, exponentials and
logarithms of rational series are one-pass coefficient recurrences that
return Fraction lists, with no series products.

A monomial renders as ``0``, as the plain coefficient at exponent 0, as
``C*t`` at exponent 1 and as ``C*t^e`` otherwise, with rationals printed
as ``p/q`` (or plain ``p`` when the denominator is one), so rendered
output is byte stable and usable in golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Optional, Union

Scalar = Union[int, Fraction]


class ExactError(ValueError):
    """Domain error in the exact-arithmetic layer."""


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ExactError(f"not an exact scalar: {x!r}")


@dataclass(frozen=True)
class Monomial:
    """The single term coeff * var^exp, with an exact coefficient.

    A zero coefficient forces exp = 0, so zeros of any degree compare
    equal.  Two monomials add only when they share their degree and
    variable; a zero adds to anything.  ``str()`` of a coefficient with
    more than 4,300 digits raises ValueError under Python's default
    int-string conversion limit; ``cli.run`` lifts that limit.
    """

    coeff: Fraction
    exp: int
    var: str = "t"

    def __post_init__(self):
        coeff = _frac(self.coeff)
        object.__setattr__(self, "coeff", coeff)
        if coeff == 0:
            object.__setattr__(self, "exp", 0)

    def is_zero(self) -> bool:
        return self.coeff == 0

    @property
    def terms(self) -> dict[int, Fraction]:
        """``{exp: coeff}``, empty for zero."""
        return {self.exp: self.coeff} if self.coeff else {}

    def __add__(self, other: "Monomial") -> "Monomial":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if (self.exp, self.var) != (other.exp, other.var):
            raise ExactError(f"cannot add {self} and {other}: different degrees")
        return Monomial(self.coeff + other.coeff, self.exp, self.var)

    def __str__(self):
        if self.is_zero():
            return "0"
        if self.exp == 0:
            return str(self.coeff)
        if self.exp == 1:
            return f"{self.coeff}*{self.var}"
        return f"{self.coeff}*{self.var}^{self.exp}"


class BivarPoly:
    """Polynomial in (t1, t2) with exact coefficients and exponents >= 0."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[tuple[int, int], Scalar]] = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (e1, e2), c in terms.items():
                if e1 < 0 or e2 < 0:
                    raise ExactError("bivariate exponents must be nonnegative")
                c = _frac(c)
                if c != 0:
                    clean[(int(e1), int(e2))] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "BivarPoly":
        return cls({(0, 0): c})

    @classmethod
    def linear(cls, a: Scalar, b: Scalar) -> "BivarPoly":
        """The linear form a*t1 + b*t2."""
        return cls({(1, 0): a, (0, 1): b})

    def _coerce(self, other) -> "BivarPoly":
        if isinstance(other, BivarPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BivarPoly.constant(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return BivarPoly(out)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, a2), c1 in self.terms.items():
            for (b1, b2), c2 in other.terms.items():
                key = (a1 + b1, a2 + b2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BivarPoly(out)

    __rmul__ = __mul__

    def expand_near_diagonal(self) -> dict[int, dict[int, Fraction]]:
        """Expand P(t1, t2) with t2 = t1 - delta as
        {delta power: {power of t = t1: coefficient}}.

        Zero coefficients and delta powers without terms are dropped; the
        empty dict is the zero polynomial.
        """
        coeffs: dict[int, dict[int, Fraction]] = {}
        for (e1, e2), c in self.terms.items():
            for j in range(e2 + 1):
                row = coeffs.setdefault(j, {})
                tpow = e1 + e2 - j
                row[tpow] = row.get(tpow, Fraction(0)) + c * comb(e2, j) * (-1) ** j
        out = {}
        for j, row in coeffs.items():
            row = {e: c for e, c in row.items() if c}
            if row:
                out[j] = row
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"BivarPoly({self.terms!r})"


# Recurrence sums start at Fraction(0), so an empty sum divided by n stays exact.
def qs_pow_int(s: list, c: int) -> list:
    """Integer power c, negative ones included, of a series with a nonzero
    rational constant term, by J.C.P. Miller's recurrence f_0 = s_0^c,
    n*s_0*f_n = sum_{j=1..n} ((c+1)j - n) s_j f_{n-j}.  A zero constant term
    raises ExactError even for c >= 0; no caller passes one."""
    if not isinstance(c, int):
        raise ExactError("series power must be an integer")
    s0 = _frac(s[0])
    if s0 == 0:
        raise ExactError("qs_pow_int requires a nonzero constant term")
    out = [s0 ** c]
    for n in range(1, len(s)):
        acc = sum((((c + 1) * j - n) * s[j] * out[n - j]
                   for j in range(1, n + 1)), Fraction(0))
        out.append(acc / (n * s0))
    return out


def qs_exp(s: list) -> list:
    """Exponential of a series with zero constant term:
    n*E_n = sum_{j=1..n} j s_j E_{n-j}."""
    if s[0] != 0:
        raise ExactError("qs_exp requires constant term 0")
    out = [Fraction(1)]
    for n in range(1, len(s)):
        acc = sum((j * s[j] * out[n - j] for j in range(1, n + 1)), Fraction(0))
        out.append(acc / n)
    return out


def qs_log(s: list) -> list:
    """Logarithm of a series with constant term 1:
    n*L_n = n*s_n - sum_{j=1..n-1} j L_j s_{n-j}."""
    if s[0] != 1:
        raise ExactError("qs_log requires constant term 1")
    out = [Fraction(0)]
    for n in range(1, len(s)):
        acc = sum((j * out[j] * s[n - j] for j in range(1, n)), Fraction(0))
        out.append((n * s[n] - acc) / n)
    return out


def euler_inverse_series(order: int) -> list[int]:
    """The Euler product inverse prod_{m>=1} (1 - q^m)^(-1).

    The q^n coefficient is the number of partitions of n; computed by the
    standard coin-style recurrence.
    """
    if order < 0:
        raise ExactError("order must be nonnegative")
    counts = [0] * (order + 1)
    counts[0] = 1
    for m in range(1, order + 1):
        for i in range(m, order + 1):
            counts[i] += counts[i - m]
    return counts


def macmahon_series(order: int) -> list[int]:
    """The MacMahon function prod_{m>=1} (1 - q^m)^(-m).

    The q^n coefficient counts plane partitions of n.  Each factor
    (1 - q^m)^(-1) acts as a stride-m prefix sum, applied m times.
    """
    if order < 0:
        raise ExactError("order must be nonnegative")
    counts = [0] * (order + 1)
    counts[0] = 1
    for m in range(1, order + 1):
        for _ in range(m):
            for i in range(m, order + 1):
                counts[i] += counts[i - m]
    return counts
