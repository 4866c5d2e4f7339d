"""Exact univariate polynomials with int coefficients and their ratios.

Used for the Laplace-transform calculus of coupling-time tails: transforms
of the tail and its level differences are ratios of integer-coefficient
polynomials in the transform variable, so identities between them can be
decided exactly, and evaluation at a rational point is exact.

Equality is equality of values: f == g when f.num * g.den == g.num * f.den,
decided by cross-multiplication.  Arithmetic results are not reduced, so
equal values may hold different num/den, and a ``RationalFn`` is unhashable.
The canonical values are the transforms built by ``_from_coprime``: coprime,
jointly content-free numerator and denominator, with a positive leading
denominator coefficient.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add, index, mul


class Poly:
    """Dense polynomial with int coefficients, ascending powers.

    Any other coefficient (0.5, Fraction(1, 2)) raises TypeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(map(index, coeffs))
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([*map(add, a, b), *a[len(b):]])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        n = len(a)
        out = [0] * (n + len(b) - 1)  # all zeros, trimmed away, if b is zero
        for j, y in enumerate(b):  # one pass over the longer factor per term
            out[j:j + n] = map(add, out[j:j + n], map(mul, a, repeat(y)))
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self):
        return f"Poly({format_poly(self)})"


class RationalFn:
    """Ratio of polynomials, stored as given; the zero function is 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly([1])):
        if isinstance(num, (int, Fraction)):  # the constant p/q is p over q * den
            num, den = Poly([num.numerator]), den * num.denominator
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = num, (Poly([1]) if num.is_zero else den)

    @classmethod
    def _from_coprime(cls, num: Poly, den: Poly) -> "RationalFn":
        """Canonical form of num/den without a gcd.

        The caller knows ``num`` and ``den`` (nonzero) to be coprime; only
        the joint content and the sign are normalized here.
        """
        content = gcd(*num.coeffs, *den.coeffs)
        if den.coeffs[-1] < 0:
            content = -content
        return cls(Poly([v // content for v in num.coeffs]),
                   Poly([v // content for v in den.coeffs]))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFn(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # equal values need not share num/den

    def __add__(self, other):
        other = _coerce(other)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + _coerce(other)

    def __mul__(self, other):
        other = _coerce(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __call__(self, value) -> Fraction:
        value = Fraction(value)
        den = self.den(value)
        if den == 0:
            raise ZeroDivisionError(f"pole at {value}")
        return self.num(value) / den

    def __repr__(self):
        return f"RationalFn({self})"

    def __str__(self):
        return format_rational(self)


def _coerce(value) -> RationalFn:
    if isinstance(value, RationalFn):
        return value
    if isinstance(value, (int, Fraction, Poly)):
        return RationalFn(value)
    raise TypeError(f"cannot combine RationalFn with {type(value).__name__}")


def format_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            sign = "-" if c < 0 else ""
            power = "a" if i == 1 else f"a^{i}"
            term = f"{sign}{mag}{power}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def format_rational(f: RationalFn) -> str:
    num = format_poly(f.num)
    if f.den == Poly([1]):
        return num
    return f"({num})/({format_poly(f.den)})"
