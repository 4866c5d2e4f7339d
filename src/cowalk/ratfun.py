"""Exact univariate polynomials and rational functions over the rationals.

Used for the Laplace-transform calculus of coupling-time tails: transforms
of the tail and its level differences are ratios of integer-coefficient
polynomials in the transform variable, so identities between them can be
decided exactly.

Canonical form of a rational function: numerator and denominator are
coprime, jointly content-free integer-coefficient polynomials, and the
denominator's leading coefficient is positive.  Equality of canonical forms
is plain coefficient equality.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


class Poly:
    """Dense polynomial with Fraction coefficients, ascending powers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(Fraction(c) for c in _trim(coeffs))

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
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.coeffs[-1]
        dn = len(other.coeffs)
        while len(rem) >= dn and any(rem):
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - dn
            factor = rem[-1] / dlead
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return Poly(quo), Poly(rem)

    def __call__(self, value):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1].monic()
    return a.monic() if not a.is_zero else a


def _integerize(*polys):
    """Scale several polynomials by one positive rational so all coefficients
    become integers with overall content 1.  Returns lists of ints."""
    denom_lcm = 1
    for p in polys:
        for c in p.coeffs:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [[int(c * denom_lcm) for c in p.coeffs] for p in polys]
    content = 0
    for row in ints:
        for v in row:
            content = gcd(content, v)
    if content > 1:
        ints = [[v // content for v in row] for row in ints]
    return ints


class RationalFn:
    """Ratio of integer-coefficient polynomials, kept in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly([1])):
        if not isinstance(num, Poly):
            num = Poly([num]) if isinstance(num, (int, Fraction)) else Poly(num)
        if not isinstance(den, Poly):
            den = Poly([den]) if isinstance(den, (int, Fraction)) else Poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = Poly(), Poly([1])
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        ni, di = _integerize(num, den)
        if di[-1] < 0:
            ni = [-v for v in ni]
            di = [-v for v in di]
        self.num = Poly(ni)
        self.den = Poly(di)

    @classmethod
    def _from_coprime(cls, num, den) -> "RationalFn":
        """Canonical form of num/den without a gcd.

        ``num`` and ``den`` are integer coefficient lists (ascending, no
        trailing zeros, ``den`` nonzero) that the caller knows to be coprime;
        only the joint content and the sign are normalized here.
        """
        if not num:
            return cls(0)
        content = 0
        for v in (*num, *den):
            content = gcd(content, v)
        if den[-1] < 0:
            content = -content
        self = cls.__new__(cls)
        self.num = Poly([v // content for v in num])
        self.den = Poly([v // content for v in den])
        return self

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFn(Poly([other]))
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

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

    def derivative(self) -> "RationalFn":
        return RationalFn(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

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


def format_poly(p: Poly, var: str = "a") -> str:
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
            power = var if i == 1 else f"{var}^{i}"
            term = f"{sign}{mag}{power}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def format_rational(f: RationalFn, var: str = "a") -> str:
    num = format_poly(f.num, var)
    if f.den == Poly([1]):
        return num
    return f"({num})/({format_poly(f.den, var)})"
