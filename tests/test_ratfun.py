from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowalk.ratfun import Poly, RationalFn, format_poly, format_rational, poly_gcd


def test_poly_basics():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert p.degree == 2
    assert (p + q).coeffs == (1, 3, 3)
    assert (p - p).is_zero
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert p(2) == 1 + 4 + 12
    assert p.derivative().coeffs == (2, 6)
    assert Poly([0, 0]).degree == -1


def test_poly_divmod():
    num = Poly([-1, 0, 1])       # a^2 - 1
    den = Poly([1, 1])           # a + 1
    quo, rem = divmod(num, den)
    assert quo == Poly([-1, 1])
    assert rem.is_zero
    quo, rem = divmod(Poly([1, 0, 1]), Poly([1, 1]))
    assert quo * Poly([1, 1]) + rem == Poly([1, 0, 1])


def test_poly_gcd():
    a = Poly([1, 1]) * Poly([2, 1]) * Poly([1, 0, 3])
    b = Poly([1, 1]) * Poly([2, 1]) * Poly([5])
    g = poly_gcd(a, b)
    assert g == (Poly([1, 1]) * Poly([2, 1])).monic()


def test_rational_canonical_form():
    f = RationalFn(Poly([2, 2]), Poly([4, 8, 4]))  # (2a+2)/(4a^2+8a+4) = 1/(2a+2)
    assert f.num == Poly([1])
    assert f.den == Poly([2, 2])
    # sign normalization: positive leading denominator coefficient
    g = RationalFn(Poly([1]), Poly([-1, -2]))
    assert g.den.coeffs[-1] > 0
    assert g.num == Poly([-1])


def test_from_coprime_normalizes_content_and_sign():
    # the gcd-free constructor agrees with the gcd path on coprime input
    f = RationalFn._from_coprime([4, -6], [-2, 0, -8])
    assert f == RationalFn(Poly([4, -6]), Poly([-2, 0, -8]))
    assert f.num == Poly([-2, 3]) and f.den == Poly([1, 0, 4])
    assert RationalFn._from_coprime([], [3, 1]).is_zero


def test_rational_equality_and_zero():
    assert RationalFn(Poly([1, 1]), Poly([2, 2])) == RationalFn(Poly([3]), Poly([6]))
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


def test_rational_derivative():
    f = RationalFn(Poly([1]), Poly([1, 1]))  # 1/(1+a), f' = -1/(1+a)^2
    assert f.derivative() == RationalFn(Poly([-1]), Poly([1, 1]) * Poly([1, 1]))


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
