"""Exact arithmetic kernels: rationals, sparse Laurent polynomials, and
truncated power series in q.

Everything in this module is exact.  Rationals are ``fractions.Fraction``.
A Laurent polynomial is a sparse map ``exponent -> Fraction`` together with
a variable symbol (t for brackets, u = t + z for one-end contributions,
and c1, c2, c3 for polynomials in the formal top Chern class c_d of the
Fulton-MacPherson calculus); a bivariate polynomial in (t1, t2) is a
map ``(e1, e2) -> Fraction`` with nonnegative exponents, used by the
rational-limit cross-check of the localization kernel.  A power series
in q is a plain list: the q^n coefficient sits at index n, the series is
known through order ``len - 1``, and two series are equal only when their
lists are, so a truncated series never equals a longer one.  Partition
and plane-partition counts are int lists; integer powers, exponentials
and logarithms of rational series are one-pass coefficient recurrences
that return Fraction lists, with no series products.

The zero polynomial has an empty term map; constructors prune zero
coefficients.  Canonical rendering sorts terms by ascending exponent and
prints rationals as ``p/q`` (or plain ``p`` when the denominator is one),
so rendered output is byte stable and usable in golden tests.
"""

from __future__ import annotations

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


class LaurentPoly:
    """Sparse Laurent polynomial in a single variable, exact coefficients.

    Term maps never contain zero coefficients.  Two values compare equal
    when their term maps are equal and, unless both are constant, their
    variables are equal too: a constant carries no variable, so it equals
    the same constant in any variable and the same int or Fraction.  Binary
    operations require matching variables unless one operand is a constant
    or a plain scalar.
    """

    __slots__ = ("var", "terms")

    def __init__(self, var: str, terms: Optional[Mapping[int, Scalar]] = None):
        self.var = var
        clean: dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _frac(c)
                if c != 0:
                    clean[int(e)] = c
        self.terms = clean

    @classmethod
    def zero(cls, var: str = "t") -> "LaurentPoly":
        return cls(var, {})

    @classmethod
    def constant(cls, c: Scalar, var: str = "t") -> "LaurentPoly":
        return cls(var, {0: _frac(c)})

    @classmethod
    def monomial(cls, var: str, exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        return cls(var, {exp: _frac(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    def coefficient(self, exp: int) -> Fraction:
        return self.terms.get(exp, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def homogeneous_degree(self) -> Optional[int]:
        """The single exponent if this is a monomial, else None (zero -> None)."""
        if len(self.terms) == 1:
            return next(iter(self.terms))
        return None

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.var != self.var and not (other.is_constant() or self.is_constant()):
                raise ExactError(
                    f"variable mismatch: {self.var!r} vs {other.var!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(other, self.var)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        var = self.var if not self.is_constant() else other.var
        return LaurentPoly(var, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.var, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        var = self.var if not self.is_constant() else other.var
        return LaurentPoly(var, out)

    __rmul__ = __mul__

    def div_monomial(self, other: "LaurentPoly") -> "LaurentPoly":
        """Divide exactly by a nonzero monomial."""
        if not other.is_monomial():
            raise ExactError("divisor must be a nonzero monomial")
        (e, c), = other.terms.items()
        return LaurentPoly(self.var, {e1 - e: c1 / c for e1, c1 in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.terms != other.terms:
            return False
        return self.var == other.var or self.is_constant()

    def __hash__(self):
        # a constant equals the same int or Fraction, so it hashes like one
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.var, frozenset(self.terms.items())))

    def evaluate(self, value: Scalar) -> Fraction:
        """The value at a rational point of the variable."""
        value = _frac(value)
        return sum((c * value ** e for e, c in self.terms.items()), Fraction(0))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                pieces.append(str(c))
            elif e == 1:
                pieces.append(f"{c}*{self.var}")
            else:
                pieces.append(f"{c}*{self.var}^{e}")
        text = pieces[0]
        for p in pieces[1:]:
            if p.startswith("-"):
                text += " - " + p[1:]
            else:
                text += " + " + p
        return text

    def __repr__(self):
        return f"LaurentPoly({self.var!r}, {self.terms!r})"


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

    def expand_near_diagonal(self) -> dict[int, LaurentPoly]:
        """Expand P(t1, t2) with t2 = t1 - delta as {delta power: poly in t = t1}.

        Zero coefficients are dropped; the empty dict is the zero polynomial.
        """
        coeffs: dict[int, dict[int, Fraction]] = {}
        for (e1, e2), c in self.terms.items():
            for j in range(e2 + 1):
                cj = c * comb(e2, j) * (-1) ** j
                tpow = e1 + e2 - j
                coeffs.setdefault(j, {})
                coeffs[j][tpow] = coeffs[j].get(tpow, Fraction(0)) + cj
        out = {}
        for j, m in coeffs.items():
            poly = LaurentPoly("t", m)
            if not poly.is_zero():
                out[j] = poly
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
