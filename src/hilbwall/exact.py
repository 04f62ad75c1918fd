"""Exact arithmetic kernels: rationals, monomials, and truncated power
series in q.

Everything in this module is exact.  Rationals are ``fractions.Fraction``.
Every t- or u-valued result of the package is a single term
``C * t^e`` (a bracket, a series coefficient) or ``C * u^e`` (a one-end
contribution, u = t + z), so the one value type is :class:`Monomial`.  A
power series in q is a plain list: the q^n coefficient sits at index n,
the series is known through order ``len - 1``, and two series are equal
only when their lists are, so a truncated series never equals a longer
one.  Partition and plane-partition counts are int lists, each computed by
an integer recurrence; the one series routine, :func:`qs_pow_int`, raises
an integer series with constant term 1 to an integer power by a one-pass
coefficient recurrence whose divisions are exact, so it returns an int
list, with no series products.

A monomial renders as ``0``, as the plain coefficient at exponent 0, as
``C*t`` at exponent 1 and as ``C*t^e`` otherwise, with rationals printed
as ``p/q`` (or plain ``p`` when the denominator is one), so rendered
output is byte stable and usable in golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class ExactError(ValueError):
    """Domain error in the exact-arithmetic layer."""


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
        coeff = self.coeff
        if isinstance(coeff, int):
            coeff = Fraction(coeff)
        elif not isinstance(coeff, Fraction):
            raise ExactError(f"not an exact scalar: {coeff!r}")
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


def qs_pow_int(s: list[int], c: int) -> list[int]:
    """Integer power c, negative ones included, of an integer series with
    constant term 1, by J.C.P. Miller's recurrence f_0 = 1,
    n*f_n = sum_{j=1..n} ((c+1)j - n) s_j f_{n-j}.  The coefficients of the
    power are integers, so each division by n is exact; any other constant
    term, or a nonzero remainder (a non-integer coefficient), raises
    ExactError."""
    if not isinstance(c, int):
        raise ExactError("series power must be an integer")
    if s[:1] != [1]:
        raise ExactError("qs_pow_int requires the constant term 1")
    out = [1]
    for n in range(1, len(s)):
        acc = sum(((c + 1) * j - n) * s[j] * out[n - j] for j in range(1, n + 1))
        f, rem = divmod(acc, n)
        if rem:
            raise ExactError("qs_pow_int requires an integer series")
        out.append(f)
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
    """The MacMahon function M(q) = prod_{m>=1} (1 - q^m)^(-m).

    The q^n coefficient counts plane partitions of n.  Since
    q M'/M = sum_k sigma_2(k) q^k, with sigma_2(k) the sum of the squared
    divisors of k, the counts obey n M_n = sum_{k=1..n} sigma_2(k) M_(n-k),
    an exact integer division.
    """
    if order < 0:
        raise ExactError("order must be nonnegative")
    sigma2 = [0] * (order + 1)
    for d in range(1, order + 1):
        for m in range(d, order + 1, d):
            sigma2[m] += d * d
    counts = [1]
    for n in range(1, order + 1):
        counts.append(sum(sigma2[k] * counts[n - k] for k in range(1, n + 1)) // n)
    return counts
