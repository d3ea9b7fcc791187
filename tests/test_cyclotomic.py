import math
from fractions import Fraction

import pytest

from origami_rings.angles import Angle
from origami_rings.cyclotomic import (
    CyclotomicReal,
    cos_of,
    cyclotomic_polynomial,
    euler_phi,
    minimal_polynomial,
    sin_of,
    sqrt_rational,
)
from origami_rings.polynomials import RationalPolynomial

HALF = Fraction(1, 2)


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # prime: 1 + x + ... + x^(p-1)
    assert cyclotomic_polynomial(7) == (1,) * 7


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 12, 60, 120)] == [
        1, 1, 2, 2, 4, 16, 32,
    ]


def test_rational_round_trip():
    x = CyclotomicReal.from_rational(Fraction(-7, 3))
    assert x.is_rational and not x.is_integer
    assert x.as_rational() == Fraction(-7, 3)
    assert CyclotomicReal.from_rational(5).is_integer


def test_field_operations_match_rationals():
    a = CyclotomicReal.from_rational(Fraction(3, 4))
    b = CyclotomicReal.from_rational(Fraction(-2, 5))
    assert (a + b).as_rational() == Fraction(3, 4) - Fraction(2, 5)
    assert (a * b).as_rational() == Fraction(-3, 10)
    assert (a / b).as_rational() == Fraction(3, 4) / Fraction(-2, 5)
    assert (a - 1).as_rational() == Fraction(-1, 4)
    assert (2 * a).as_rational() == Fraction(3, 2)


def test_sin_cos_special_values():
    assert sin_of(Angle.zero()).is_zero
    assert cos_of(Angle.zero()) == 1
    assert sin_of(Angle(1, 2)) == 1
    assert cos_of(Angle(1, 2)).is_zero
    assert sin_of(Angle(1, 6)) == HALF
    assert cos_of(Angle(1, 3)) == HALF
    assert cos_of(Angle(2, 3)) == -HALF
    assert sin_of(Angle(1, 4)) == cos_of(Angle(1, 4))


def test_sin_cos_match_sqrt_forms():
    s3 = sqrt_rational(3)
    assert sin_of(Angle(1, 3)) * 2 == s3
    assert sin_of(Angle(2, 3)) * 2 == s3
    s2 = sqrt_rational(2)
    assert cos_of(Angle(1, 4)) * 2 == s2
    # cos(pi/6) = sqrt(3)/2 lives in conductor 12, sqrt(3) in 12 as well
    assert cos_of(Angle(1, 6)) * 2 == s3


def test_sqrt_rational_squares():
    for v in [2, 3, 5, 7, Fraction(1, 2), Fraction(9, 4), Fraction(12, 25)]:
        root = sqrt_rational(v)
        assert root * root == CyclotomicReal.from_rational(Fraction(v))
        assert root.sign() >= 0
    assert sqrt_rational(4).as_rational() == 2
    assert sqrt_rational(0).is_zero
    with pytest.raises(ValueError):
        sqrt_rational(-1)


def test_conductor_promotion_preserves_value():
    s3 = sqrt_rational(3)
    promoted = s3.to_conductor(60)
    assert promoted.conductor == 60
    assert promoted == s3
    assert promoted * promoted == 3


def test_inverse():
    s3 = sqrt_rational(3)
    assert s3 * s3.inv() == 1
    x = 1 + s3
    assert x * x.inv() == 1
    with pytest.raises(ZeroDivisionError):
        CyclotomicReal.from_rational(0).inv()


def test_powers():
    s2 = sqrt_rational(2)
    assert s2**4 == 4
    assert s2**0 == 1
    assert s2**-2 == HALF


def test_sign_and_comparisons():
    s2 = sqrt_rational(2)
    s3 = sqrt_rational(3)
    assert (s3 - s2).sign() == 1
    assert (s2 - s3).sign() == -1
    # 0 only through an exact representation check, not numerics
    assert (s3 * s3 - 3).sign() == 0
    # golden-ratio style near misses stay decidable
    assert (sqrt_rational(Fraction(49, 16)) - Fraction(7, 4)).sign() == 0
    # symmetry about pi/2 collapses to an exact zero, not a tiny interval
    assert (sin_of(Angle(1, 4)) - sin_of(Angle(3, 4))).sign() == 0
    assert (sin_of(Angle(1, 3)) - sin_of(Angle(1, 4))).sign() == 1


def test_interval_encloses_value():
    s3 = sqrt_rational(3)
    box = s3.interval(Fraction(1, 10**20))
    # enclosure of the positive root: squares must bracket 3
    assert box.lo > 0
    assert box.lo * box.lo <= 3 <= box.hi * box.hi
    assert box.width <= Fraction(1, 10**20)


def test_interval_midpoint_tracks_float():
    for num, den in [(1, 3), (1, 4), (2, 5), (3, 8), (5, 12), (2, 15)]:
        for value, ref in (
            (sin_of(Angle(num, den)), math.sin(math.pi * num / den)),
            (cos_of(Angle(num, den)), math.cos(math.pi * num / den)),
        ):
            box = value.interval(Fraction(1, 10**12))
            mid = (box.lo + box.hi) / 2
            assert abs(float(mid) - ref) <= float(box.width) + 1e-9


def test_decimal_digits():
    assert sqrt_rational(3).decimal(12) == "1.732050807569"
    assert CyclotomicReal.from_rational(HALF).decimal(4) == "0.5000"
    assert (-sqrt_rational(2)).decimal(6) == "-1.414214"


def test_realness_guard():
    # coefficient vectors must be fixed by complex conjugation
    with pytest.raises(ValueError):
        CyclotomicReal.from_coeffs(4, [0, 1])  # this would be i
    with pytest.raises(ValueError):
        CyclotomicReal.from_coeffs(12, [1, 0, 1, 0])  # 1 + zeta12^2
    # 2*zeta12 - zeta12^3 is zeta + conj(zeta) = 2cos(pi/6) = sqrt(3)
    x = CyclotomicReal.from_coeffs(12, [0, 2, 0, -1])
    assert x == sqrt_rational(3)


def test_is_fixed_by_matches_the_galois_action():
    # sigma_a fixes sqrt(5) exactly for the squares a mod 5, sqrt(2)
    # for a = +-1 mod 8, and 2*cos(pi/7), written in Q(zeta_28), for
    # a = +-1 mod 14
    cases = (
        (sqrt_rational(5), 5, {1, 4}),
        (sqrt_rational(2), 8, {1, 7}),
        (2 * cos_of(Angle(1, 7)), 28, {1, 13, 15, 27}),
    )
    for x, n, fixing in cases:
        assert x.conductor == n
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        assert {a for a in units if x.is_fixed_by(a)} == fixing
        assert x.is_fixed_by(-1)


def test_minimal_polynomial_rational_and_quadratic():
    mu = minimal_polynomial(CyclotomicReal.from_rational(Fraction(5, 3)))
    assert mu == RationalPolynomial([Fraction(-5, 3), 1])
    mu = minimal_polynomial(sqrt_rational(2))
    assert mu == RationalPolynomial([-2, 0, 1])
    mu = minimal_polynomial(1 + sqrt_rational(3))
    # (x-1)^2 = 3
    assert mu == RationalPolynomial([-2, -2, 1])
    mu = minimal_polynomial(sin_of(Angle(1, 3)) * sin_of(Angle(1, 3)))
    assert mu == RationalPolynomial([Fraction(-3, 4), 1])


def test_minimal_polynomial_degree_eight():
    # sin(2pi/15) has degree phi(60)/2 = 8; integer form
    # 256 x^8 - 448 x^6 + 224 x^4 - 32 x^2 + 1
    x = sin_of(Angle(2, 15))
    mu = minimal_polynomial(x)
    assert mu.degree == 8
    assert [c * 256 for c in mu.coefficients] == [
        1, 0, -32, 0, 224, 0, -448, 0, 256,
    ]
    assert mu(x).is_zero


def test_equality_across_conductors():
    a = CyclotomicReal.from_rational(HALF)
    b = cos_of(Angle(1, 3))
    assert a == b
    assert hash(a) == hash(b)
    assert sin_of(Angle(1, 3)) == sin_of(Angle(2, 3))
    assert sin_of(Angle(1, 5)) != sin_of(Angle(2, 5))
