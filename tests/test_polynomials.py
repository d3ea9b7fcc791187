from fractions import Fraction

from origami_rings.cyclotomic import sqrt_rational
from origami_rings.polynomials import RationalPolynomial


def test_trimming_and_degree():
    assert RationalPolynomial([]).degree == -1
    assert RationalPolynomial([0, 0, 0]).degree == -1
    assert RationalPolynomial([1, 2, 0]).degree == 1
    assert RationalPolynomial([0, 0, 5]).degree == 2
    assert RationalPolynomial([3]).coefficients == (Fraction(3),)


def test_evaluation_on_rationals():
    # x^2 - 2 at 3/2 is 1/4
    p = RationalPolynomial([-2, 0, 1])
    assert p(Fraction(3, 2)) == Fraction(1, 4)
    assert RationalPolynomial([]).__call__(Fraction(5)) == 0


def test_evaluation_on_cyclotomic_values():
    p = RationalPolynomial([-2, 0, 1])
    assert p(sqrt_rational(2)).is_zero
    q = RationalPolynomial([1, 1])
    assert q(sqrt_rational(3)) == 1 + sqrt_rational(3)


def test_str():
    p = RationalPolynomial([Fraction(16, 25), Fraction(-16, 5), 0, 1])
    text = str(p)
    assert "X^3" in text and "16/25" in text
    assert "—" not in text
