from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowalk.ratfun import Poly, RationalFn, format_poly, format_rational


def test_poly_basics():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert p.degree == 2
    assert (p + q).coeffs == (1, 3, 3)
    assert (p - p).is_zero
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert p(2) == 1 + 4 + 12
    assert Poly([0, 0]).degree == -1


def test_from_coprime_normalizes_content_and_sign():
    # the canonical form equals, as a value, the fraction stored as given
    f = RationalFn._from_coprime(Poly([4, -6]), Poly([-2, 0, -8]))
    assert f == RationalFn(Poly([4, -6]), Poly([-2, 0, -8]))
    assert f.num == Poly([-2, 3]) and f.den == Poly([1, 0, 4])
    assert all(type(c) is int for c in f.num.coeffs + f.den.coeffs)
    zero = RationalFn._from_coprime(Poly([]), Poly([3, 1]))
    assert zero.is_zero and zero.den == Poly([1])


def test_poly_refuses_non_integer_coefficients():
    for bad in (0.5, Fraction(1, 2), Fraction(2), 2.0, "1"):
        with pytest.raises(TypeError):
            Poly([1, bad])
    with pytest.raises(TypeError):
        Poly([1, 2]) * Fraction(1, 2)
    with pytest.raises(TypeError):
        Poly([1, 2]) + 0.5
    assert all(type(c) is int for c in Poly([True, 2, 0]).coeffs)


def test_fraction_constant_is_numerator_over_denominator():
    f = RationalFn(Fraction(1, 10**9))
    assert f.num == Poly([1]) and f.den == Poly([10**9])
    assert f(Fraction(3, 7)) == Fraction(1, 10**9)
    assert f == Fraction(1, 10**9) and RationalFn(Fraction(6, 4)) == Fraction(3, 2)
    g = RationalFn(Poly([1]), Poly([1, 1]))
    assert (g + Fraction(1, 2))(2) == Fraction(1, 3) + Fraction(1, 2)
    assert RationalFn(Fraction(-2, 3), Poly([0, 1])) == RationalFn(Poly([-2]), Poly([0, 3]))


def test_rational_equality_and_zero():
    f = RationalFn(Poly([2, 2]), Poly([4, 8, 4]))  # (2a+2)/(4a^2+8a+4) = 1/(2a+2)
    assert f.num == Poly([2, 2]) and f.den == Poly([4, 8, 4])  # stored as given
    assert f == RationalFn(Poly([1]), Poly([2, 2])) == RationalFn(Poly([-1]), Poly([-2, -2]))
    assert f != RationalFn(Poly([1]), Poly([2, 1]))
    assert RationalFn(Poly([3]), Poly([6])) == Fraction(1, 2)
    assert RationalFn(Poly([1, 1]), Poly([2, 2])) == RationalFn(Poly([3]), Poly([6]))
    with pytest.raises(TypeError):
        hash(f)
    assert RationalFn(Poly([]), Poly([5, 1])).den == Poly([1])
    assert (RationalFn(Poly([1])) - RationalFn(Poly([1]))).is_zero
    with pytest.raises(ZeroDivisionError):
        RationalFn(Poly([1]), Poly([]))


def test_rational_arithmetic_and_eval():
    f = RationalFn(Poly([1]), Poly([1, 1]))      # 1/(1+a)
    g = RationalFn(Poly([0, 1]), Poly([2, 1]))   # a/(2+a)
    h = f + g
    a = Fraction(3, 7)
    assert h(a) == f(a) + g(a)
    assert (f * g)(a) == f(a) * g(a)
    assert (f / g)(a) == f(a) / g(a)
    assert (2 * f)(a) == 2 * f(a)
    assert (1 - f)(a) == 1 - f(a)
    with pytest.raises(ZeroDivisionError):
        f(Fraction(-1))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rational_field_axioms(data):
    small = st.integers(-4, 4)

    def rational(allow_zero=True):
        num = Poly(data.draw(st.lists(small, min_size=1, max_size=3)))
        den = Poly(data.draw(st.lists(small, min_size=1, max_size=3)
                             .filter(lambda c: any(c))))
        if not allow_zero and num.is_zero:
            num = Poly([1])
        return RationalFn(num, den)

    f, g, h = rational(), rational(), rational()
    assert (f + g) - g == f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    nz = rational(allow_zero=False)
    assert (f / nz) * nz == f


def test_formatting():
    assert format_poly(Poly([2, 0, -3])) == "2 - 3*a^2"
    assert format_poly(Poly([])) == "0"
    assert format_rational(RationalFn(Poly([9]), Poly([10, 9]))) == "(9)/(10 + 9*a)"
    assert format_rational(RationalFn(Poly([1, 1]))) == "1 + a"
