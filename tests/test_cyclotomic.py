import decimal
import math
import random
import tracemalloc
from fractions import Fraction
from functools import cache

import mpmath
import numpy as np
import pytest
from mpmath import iv

from conftest import _zeta_power_rows_reference
from origami_rings import cyclotomic, linalg
from origami_rings.angles import Angle
from origami_rings.construction import generate
from origami_rings.cyclotomic import (
    CyclotomicReal,
    cos_of,
    cyclotomic_polynomial,
    euler_phi,
    minimal_polynomial,
    rewrite_in_conductor,
    sin_of,
    sqrt_rational,
)
from origami_rings.polynomials import RationalPolynomial
from origami_rings.ring_analysis import ratio_elements
from origami_rings.slopes import SlopeSet

HALF = Fraction(1, 2)


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # prime: 1 + x + ... + x^(p-1)
    assert cyclotomic_polynomial(7) == (1,) * 7


def _poly_divexact(num, den):
    """Exact division of integer polynomials; den must be monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        out[shift] = c
        if c:
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    assert not any(num)
    return tuple(out)


@cache
def _cyclotomic_polynomial_reference(n):
    """The former definition: x^n - 1 over Phi_d for every proper divisor d."""
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, _cyclotomic_polynomial_reference(d))
    return poly


def test_cyclotomic_polynomial_matches_quotient_definition():
    for n in [*range(1, 400), 1540, 1980, 2310]:
        assert cyclotomic_polynomial(n) == _cyclotomic_polynomial_reference(n), n


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _moebius_reference(n):
    mu, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if m > 1 else mu


def _cyclotomic_polynomial_divisor_product(n):
    """The former construction: Phi_n = prod over d | n of (x^d - 1)^mu(n/d),
    multiplying by the factors with mu = +1, then dividing exactly by those
    with mu = -1."""
    poly = [1]
    mus = [(d, _moebius_reference(n // d)) for d in _divisors(n)]
    for d, mu in mus:
        if mu == 1:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d, mu in mus:
        if mu == -1:
            q = []
            for i in range(len(poly) - d):
                q.append((q[i - d] if i >= d else 0) - poly[i])
            poly = q
    return tuple(poly)


def test_cyclotomic_polynomial_from_the_radical_matches_the_divisor_product():
    for n in [*range(1, 2001), 13860]:
        poly = cyclotomic_polynomial(n)
        assert poly == _cyclotomic_polynomial_divisor_product(n), n
        # euler_phi comes from the factorization, not from Phi_n
        assert euler_phi(n) == len(poly) - 1, n


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 12, 60, 120)] == [
        1, 1, 2, 2, 4, 16, 32,
    ]


def test_rational_round_trip():
    x = CyclotomicReal.from_rational(Fraction(-7, 3))
    assert x.is_rational and not x.is_integer
    assert x.as_rational() == Fraction(-7, 3)
    assert CyclotomicReal.from_rational(5).is_integer
    with pytest.raises(ValueError, match="is not rational"):
        sqrt_rational(2).as_rational()
    # values come from the named constructors only
    with pytest.raises(TypeError, match="use from_rational"):
        CyclotomicReal(1, (1,), 1)


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
    with pytest.raises(ValueError, match="not a multiple"):
        s3.to_conductor(25)


def test_inverse():
    s3 = sqrt_rational(3)
    assert s3 * s3.inv() == 1
    x = 1 + s3
    assert x * x.inv() == 1
    with pytest.raises(ZeroDivisionError):
        CyclotomicReal.from_rational(0).inv()


def test_reflected_division_float_str_and_truth_value():
    # a rational on the left of / divides through __rtruediv__
    s3 = sqrt_rational(3)
    assert 1 / s3 == s3.inv()
    assert Fraction(1, 3) / s3 == s3 / 9
    with pytest.raises(ZeroDivisionError):
        1 / CyclotomicReal.from_rational(0)
    s2 = sqrt_rational(2)
    assert float(s2) == math.sqrt(2)
    assert float(cos_of(Angle(1, 5))) == pytest.approx((1 + math.sqrt(5)) / 4, rel=1e-15)
    assert str(s2) == "<1.41421356237 in Q(zeta_8)>"
    assert str(cos_of(Angle(1, 5))) == "<0.809016994375 in Q(zeta_20)>"
    assert str(CyclotomicReal.from_rational(Fraction(-7, 3))) == "-7/3"
    assert s2 and not CyclotomicReal.from_rational(0)
    assert not (s2 * s2 - 2)


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
    for width in (0, -1):
        with pytest.raises(ValueError, match="max_width must be positive"):
            s3.interval(width)


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
    with pytest.raises(ValueError, match="digits must be nonnegative"):
        sqrt_rational(3).decimal(-1)


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


def test_hash_agrees_across_conductors(pentagon):
    # pentagon p-values and level-2 coordinates on the working conductor,
    # promoted by 3, 5 and 7; some lie in a field below the stored one
    rng = random.Random(16)
    values = list(pentagon.p_table.values())
    values += rng.sample([v for pt in generate(pentagon, 2)[-1] for v in (pt.r, pt.s)], 40)
    lower = [
        y for x in values for p in cyclotomic._primes(x.conductor)
        if (y := rewrite_in_conductor(x, x.conductor // p)) is not None
    ]
    assert lower and any(not y.is_rational for y in lower)
    for x in values + lower:
        for k in (3, 5, 7):
            y = x.to_conductor(x.conductor * k)
            assert y == x and hash(y) == hash(x)
    for y in lower:
        assert hash(y) == hash(y.to_conductor(pentagon.working_conductor))


def test_hash_separates_galois_conjugates():
    assert hash(sqrt_rational(2)) != hash(-sqrt_rational(2))
    assert hash(cos_of(Angle(2, 5))) != hash(cos_of(Angle(4, 5)))


def test_rewrite_in_conductor_descends_without_a_lattice(monkeypatch):
    # 40 -> 20 descends by 2 with 2 | 20; 60 -> 20 by 3, 12 -> 4 by 3 and
    # 28 -> 4 by 7 descend by a prime outside the smaller conductor
    def no_lattice(*args):
        raise AssertionError("lattice built for a rewrite")

    monkeypatch.setattr(linalg.IntegerLattice, "__init__", no_lattice)
    c5 = cos_of(Angle(1, 5))
    for x, n in ((c5.to_conductor(40), 60), (c5.to_conductor(60), 40), (c5, 120)):
        got = rewrite_in_conductor(x, n)
        assert got.conductor == n and got == c5
    assert rewrite_in_conductor(sqrt_rational(7), 120) is None
    assert rewrite_in_conductor(cos_of(Angle(1, 6)), 40) is None
    assert rewrite_in_conductor(cos_of(Angle(1, 20)), 60) is None


def _schoolbook(a, b):
    raw = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    raw[i + j] += x * y
    return raw


@cache
def _power_rows_reference(n):
    """Basis vectors of zeta_n^j for j < 2*phi(n) - 1, row by row."""
    phi = euler_phi(n)
    top = [-c for c in cyclotomic_polynomial(n)[:phi]]
    rows = [[1] + [0] * (phi - 1)]
    for _ in range(2 * phi - 2):
        row, lead = rows[-1], rows[-1][-1]
        rows.append([s + lead * t for s, t in zip([0] + row[:-1], top)])
    return rows


def _reduce_reference(raw, n):
    """The former reduction: add raw[j] times the basis vector of zeta^j."""
    phi = euler_phi(n)
    rows = _power_rows_reference(n)
    out = raw[:phi] + [0] * (phi - len(raw))
    for j in range(phi, len(raw)):
        if raw[j]:
            out = [o + raw[j] * r for o, r in zip(out, rows[j])]
    return out


def _mul_reference(x, y):
    """The former product: schoolbook convolution, then the dense reduction."""
    n = math.lcm(x.conductor, y.conductor)
    a, b = x.to_conductor(n), y.to_conductor(n)
    raw = _reduce_reference(_schoolbook(a._num, b._num), n)
    return CyclotomicReal._make(n, raw, a._den * b._den)


def _coefficient(rng, bits):
    return rng.choice((-1, 1)) * rng.randrange(2 ** (bits - 1), 2**bits) if bits else 0


def _element(rng, n, bits, den=1):
    coeffs = [_coefficient(rng, bits) for _ in range(euler_phi(n))]
    return CyclotomicReal._make(n, coeffs, den)


def _assert_product(x, y):
    got, expected = x * y, _mul_reference(x, y)
    assert (got.conductor, got._num, got._den) == (
        expected.conductor, expected._num, expected._den,
    )


def test_product_matches_schoolbook_reference():
    rng = random.Random(6)
    cutoff = cyclotomic._KRONECKER_MIN_LEN
    sizes = (0, 1, 8, 64, 512, 2000)
    # 57, 55 and 49 have phi 36, 40 and 42, around the Kronecker cutoff
    for n in (1, 3, 4, 12, 49, 55, 57, 120, 144, 1540, 1980):
        if euler_phi(n) < 100:
            pairs = [(s, t) for s in sizes for t in sizes]
        else:
            pairs = [(1, 1), (8, 64), (2000, 1)]
        for s, t in pairs:
            _assert_product(_element(rng, n, s, 3), _element(rng, n, t, 10))
        monomial = [0] * euler_phi(n)
        monomial[-1] = -7
        single = CyclotomicReal._make(n, monomial, 1)
        _assert_product(single, _element(rng, n, 64))
        _assert_product(single, single)
        if euler_phi(n) <= 48:
            x = _element(rng, n, 1) + 1
            assert x * x.inv() == 1
    # mixed conductors promote to the lcm first
    for c, d in ((3, 4), (8, 12), (12, 120), (4, 1540), (9, 220)):
        _assert_product(_element(rng, c, 8), _element(rng, d, 64))
    # every split point of the raw length against phi
    for n in (12, 144, 1980):
        phi = euler_phi(n)
        for length in (1, phi - 1, phi, phi + 1, 2 * phi - 1):
            raw = [_coefficient(rng, 64) for _ in range(length)]
            assert cyclotomic._reduce_product(raw[:], n) == _reduce_reference(raw, n)
    # convolution lengths around the cutoff, with unequal lengths
    for la in (cutoff - 1, cutoff, cutoff + 1):
        for lb in (la, 3 * la):
            a = [_coefficient(rng, 64) for _ in range(la)]
            b = [_coefficient(rng, 8) for _ in range(lb)]
            assert cyclotomic._convolve(a, b) == _schoolbook(a, b)
            assert cyclotomic._convolve(b, a) == _schoolbook(a, b)
    # all-equal vectors of the largest coefficients fill their slots; the
    # bit sizes i + j and the length bits meet every byte boundary, so a
    # slot one bit too narrow overflows somewhere here
    for length in (63, 127):
        size = 2 * length - 1
        for i in range(2, 10):
            for j in (i, i + 1):
                for a, b in ((1, 1), (-1, 1), (-1, -1)):
                    a, b = a * (2**i - 1), b * (2**j - 1)
                    expected = [a * b * min(k + 1, length, size - k) for k in range(size)]
                    assert cyclotomic._convolve([a] * length, [b] * length) == expected


def test_conductor_1_rational_on_either_side_scales_without_a_convolution(monkeypatch):
    # the shortcut skips the promotion and the product modulo Phi_n, and
    # its result is canonical, so both sides give the reference's bytes
    rng = random.Random(9)
    xs = [_element(rng, n, 64, 5) for n in (1, 12, 120, 1980)]
    xs += [sqrt_rational(7), CyclotomicReal.from_rational(0, 120)]
    rationals = [CyclotomicReal.from_rational(r) for r in (0, 1, Fraction(-3, 4), 2**70 + 1)]
    expected = [(r, x, _mul_reference(r, x)) for r in rationals for x in xs]

    def no_convolution(*args):
        raise AssertionError("convolution for a conductor-1 rational")

    monkeypatch.setattr(cyclotomic, "_convolve", no_convolution)
    for r, x, want in expected:
        for got in (r * x, x * r):
            assert (got.conductor, got._num, got._den) == (want.conductor, want._num, want._den)


def _inv_reference(x):
    """The former inverse: extended Euclid on Fraction polynomials."""
    if x.is_rational:
        return CyclotomicReal.from_rational(1 / x.as_rational(), x.conductor)

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def divmod_poly(a, b):
        q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
        rem = a[:]
        for shift in range(len(a) - len(b), -1, -1):
            c = rem[shift + len(b) - 1] / b[-1]
            q[shift] = c
            if c:
                for i, d in enumerate(b):
                    rem[shift + i] -= c * d
        return q, trim(rem)

    r0 = trim([Fraction(c, x._den) for c in x._num])
    r1 = [Fraction(c) for c in cyclotomic_polynomial(x.conductor)]
    s0, s1 = [Fraction(1)], []
    while r1:
        q, rem = divmod_poly(r0, r1)
        s_new = s0[:] + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qc in enumerate(q):
            for j, sc in enumerate(s1):
                s_new[i + j] -= qc * sc
        r0, r1 = r1, rem
        s0, s1 = s1, trim(s_new)
    assert len(r0) == 1
    coeffs = [c / r0[0] for c in s0]
    coeffs += [Fraction(0)] * (euler_phi(x.conductor) - len(coeffs))
    den = math.lcm(*(c.denominator for c in coeffs))
    return CyclotomicReal._make(x.conductor, [int(c * den) for c in coeffs], den)


def _spy(monkeypatch, name):
    """Record the last argument of every call to a private cyclotomic helper."""
    seen, real = [], getattr(cyclotomic, name)

    def spy(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(cyclotomic, name, spy)
    return seen


def _assert_inverse(x):
    got, expected = x.inv(), _inv_reference(x)
    assert (got.conductor, got._num, got._den) == (
        expected.conductor, expected._num, expected._den,
    )


def test_inverse_matches_fraction_euclid_reference(monkeypatch):
    rng = random.Random(7)
    for n in (3, 4, 5, 12):
        for bits in (1, 8, 64):
            for den in (1, 3, 10):
                _assert_inverse(_element(rng, n, bits, den))
    for n in (120, 144):
        _assert_inverse(_element(rng, n, 1, 3))
        # the reference takes seconds on dense 64-bit elements here, so the
        # 64-bit case is sparse
        sparse = [0] * euler_phi(n)
        sparse[0], sparse[rng.randrange(1, euler_phi(n))] = _coefficient(rng, 64), 1
        _assert_inverse(CyclotomicReal._make(n, sparse, 5))
    _assert_inverse(_element(rng, 120, 8, 7))
    # rational values take the fast path, also when promoted
    for q in (Fraction(-7, 3), Fraction(2**70 + 1, 5)):
        _assert_inverse(CyclotomicReal.from_rational(q).to_conductor(120))
    with pytest.raises(ZeroDivisionError):
        CyclotomicReal.from_rational(0, 12).inv()
    # beyond the reference in time: an inverse over a 2087-bit denominator,
    # eight Newton steps up from the 31-bit prime, and dense elements at
    # the largest conductors
    moduli = _spy(monkeypatch, "_reconstruct")
    x = _element(rng, 120, 64, 3)
    assert x * x.inv() == 1 and len(moduli) == 9
    for n in (1540, 1980):
        x = _element(rng, n, 1)
        assert x * x.inv() == 1
    # an element divisible by q = split_prime(5) has q in its norm, so Euclid
    # mod q fails and the inverse moves to the next prime 1 mod 5; both lie
    # below 2^31, and the Euclid runs on int64 arrays only
    monkeypatch.undo()
    q = cyclotomic.split_prime(5)
    x = q * sqrt_rational(5)
    assert x.conductor == 5
    primes, arrays, array = _spy(monkeypatch, "_inverse_mod_prime"), [], np.array

    def recording_array(*args, **kwargs):
        arrays.append(array(*args, **kwargs))
        return arrays[-1]

    monkeypatch.setattr(np, "array", recording_array)
    y = x.inv()
    monkeypatch.undo()
    assert y == sqrt_rational(5) / (5 * q)
    step = next(p for p in range(q + 5, 2**31, 5) if _is_prime_reference(p))
    assert primes == [q, step] and q % 5 == step % 5 == 1 and step < 2**31
    assert arrays and all(a.dtype == np.int64 for a in arrays)


def _mpmath_enclosure(x, prec):
    """An mpmath interval enclosure of the sum of c_j cos(2 pi j/n) over the
    denominator, 64 bits finer than 2^-prec, as Fractions."""
    old = iv.prec
    iv.prec = prec + 64 + sum(map(abs, x._num)).bit_length()
    try:
        total = iv.mpf(0)
        for j, c in enumerate(x._num):
            if c:
                total += c * iv.cos(iv.pi * (iv.mpf(2 * j) / iv.mpf(x.conductor)))
        box = total / x._den
    finally:
        iv.prec = old
    return tuple(Fraction(*mpmath.libmp.to_rational(r)) for r in box._mpi_)


def test_enclosure_contains_the_value_and_is_at_most_4_ulps_per_coefficient():
    # each enclosure holds a 64-bit finer mpmath enclosure of the value, is
    # at most 4 * sum|c_j| ulps of 2^-prec wide, and is exact for a
    # rational element
    rng = random.Random(11)
    kinds = (0, 1, 64)
    cases = []
    for n in (1, 4, 7, 12, 120, 144, 1980):
        for den in (1, 3, 10):
            coeffs = [_coefficient(rng, rng.choice(kinds)) for _ in range(euler_phi(n))]
            cases.append(CyclotomicReal._make(n, coeffs, den))
    # c + zeta_120^30: its enclosure sums c and cos(pi/2) = 0
    lone = [0] * euler_phi(120)
    lone[30] = 1
    for c in (1, -1, 2**64 - 59, -(2**63 + 5)):
        lone[0] = c
        cases.append(CyclotomicReal._make(120, lone, 7))
        cases.append(CyclotomicReal.from_rational(Fraction(c, 7), 120))
    for prec in (64, 128, 1024):
        for x in cases:
            lo, hi, den = x._enclosure_at(prec)
            assert den == x._den << prec
            assert hi - lo <= 4 * sum(map(abs, x._num))
            if x.is_rational:
                assert lo == hi and Fraction(lo, den) == x.as_rational()
            else:
                ref_lo, ref_hi = _mpmath_enclosure(x, prec)
                assert Fraction(lo, den) <= ref_lo and ref_hi <= Fraction(hi, den)


@pytest.mark.parametrize("n", [1, 4, 7, 12, 120, 144, 1980, 13860])
def test_each_cos_enclosure_contains_cos_and_is_at_most_two_ulps_wide(n):
    for prec in (64, 128, 1024):
        for j in range(euler_phi(n)):
            lo, hi, e = cyclotomic._cos_endpoints(n, j, prec)
            assert e == -prec and hi - lo <= 2
            if j == 0:
                assert lo == hi == 1 << prec
                continue
            old = iv.prec
            iv.prec = prec + 64
            try:
                box = iv.cos(iv.pi * (iv.mpf(2 * j) / iv.mpf(n)))
            finally:
                iv.prec = old
            ref_lo, ref_hi = (Fraction(*mpmath.libmp.to_rational(r)) for r in box._mpi_)
            assert Fraction(lo, 2**prec) <= ref_lo and ref_hi <= Fraction(hi, 2**prec), (j, prec)


def test_cold_decimal_seeds_its_powers_with_one_enclosure_of_zeta(monkeypatch):
    # sqrt(10007) lies at conductor 40,028 with 5,004 nonzero coefficients;
    # its 12 decimals take one table of powers, seeded by iv.cos and iv.sin
    x = sqrt_rational(10007)
    assert x.conductor == 40028
    cyclotomic._zeta_steps.cache_clear()
    cyclotomic._cos_endpoints.cache_clear()
    calls = []
    for name in ("cos", "sin"):
        original = getattr(iv, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(iv, name, spy)
    want = decimal.Decimal(10007).sqrt(decimal.Context(prec=40))
    assert x.decimal(12) == str(want.quantize(decimal.Decimal("1e-12")))
    assert sorted(calls) == ["cos", "sin"]


def test_coefficient_strings_match_fraction_str():
    for c, den in ((0, 1), (0, 6), (-5, 1), (7, 1), (-7, 3), (6, 4), (-12, 4),
                   (2**70 + 1, 3), (-(2**70), 2**64 * 5)):
        assert cyclotomic._ratio_text(c, den) == str(Fraction(c, den))
    x = sqrt_rational(Fraction(5, 12)) - Fraction(1, 3)
    assert x.coefficient_strings() == tuple(str(c) for c in x.coefficients())


def _decimal_reference(x, digits):
    """The former decimal: Fraction midpoint, scaling and round."""
    box = x.interval(Fraction(1, 10 ** (digits + 2)))
    mid = box.midpoint
    sign = "-" if mid < 0 else ""
    scaled = round(abs(mid) * 10**digits)
    text = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def test_decimal_matches_fraction_reference():
    rng = random.Random(17)
    cases = [CyclotomicReal.from_rational(0, n) for n in (1, 12)]
    # exact ties a/2000 (rational values have exact enclosures), both signs
    for a in (1, 3, 5, 25, 1000, 1001, 2500, 3000, 4999):
        for n in (1, 12):
            cases += [CyclotomicReal.from_rational(Fraction(s * a, 2000), n) for s in (1, -1)]
    for n in (1, 12, 120, 1980):
        for den in (1, 3, 7, 2**40 + 1):
            for bits in (1, 8, 64):
                coeffs = [_coefficient(rng, bits) for _ in range(euler_phi(n))]
                cases.append(CyclotomicReal._make(n, coeffs, den))
    for x in cases:
        for digits in (0, 1, 2, 3, 4, 12, 30):
            assert x.decimal(digits) == _decimal_reference(x, digits), (x, digits)


@pytest.mark.parametrize(
    "x, digits, precisions",
    [
        (sqrt_rational(3), 12, [64]),
        (CyclotomicReal.from_rational(Fraction(10**30, 7), 12), 12, [64]),
        # sum|c_j| is about 10^6: 10^6 ulps of 2^-64 are too wide for 12 digits
        (cos_of(Angle(1, 5)) * 10**6, 12, [128]),
        (sqrt_rational(7) * 3**40, 30, [256]),
    ],
)
def test_decimal_skips_precisions_its_coefficients_rule_out(monkeypatch, x, digits, precisions):
    # each cos(2*pi*j/n), j > 0, has an enclosure at least one ulp wide;
    # decimal starts where sum|c_j| ulps are narrow enough, and ends where
    # the unskipped sequence from _FIRST_PREC ends, with the same text
    seen, enclosure_at = [], CyclotomicReal._enclosure_at

    def spy(self, prec):
        seen.append(prec)
        return enclosure_at(self, prec)

    monkeypatch.setattr(CyclotomicReal, "_enclosure_at", spy)
    text = x.decimal(digits)
    assert seen == precisions
    del seen[:]
    unskipped = x._refine(lambda lo, hi, den: cyclotomic._decimal_text(lo, hi, den, digits))
    assert unskipped == text
    assert seen[0] == cyclotomic._FIRST_PREC and seen[-1] == precisions[-1]


def _draw(rng, n, bits):
    coeffs = [_coefficient(rng, bits) for _ in range(euler_phi(n))]
    return CyclotomicReal._make(n, coeffs, rng.randrange(1, 2**bits))


@pytest.mark.parametrize("n, bits", [(12, 8), (120, 30), (120, 100), (1980, 8), (1980, 100)])
def test_batch_kernels_match_elementwise_arithmetic(n, bits):
    # 30-bit operands fit in int64 but their products do not, and 100-bit
    # ones do not fit at all: both take the Python-int kernels
    rng = random.Random(n + bits)
    xs = [_draw(rng, n, bits) for _ in range(3)] + [CyclotomicReal.from_rational(0, n)]
    ys = [_draw(rng, n, bits) for _ in range(4)]
    a, b = cyclotomic.stack(xs, n), cyclotomic.stack(ys, n)
    assert a.values() == xs
    assert (a + b).values() == [x + y for x, y in zip(xs, ys)]
    assert (a - b).values() == [x - y for x, y in zip(xs, ys)]
    row = a.take(slice(0, 1))
    assert (row - b).values() == [xs[0] - y for y in ys]
    for fixed in (ys[0], _draw(rng, n, 4), CyclotomicReal.from_rational(Fraction(-3, 4))):
        assert (a * fixed).values() == [x * fixed for x in xs]


@pytest.mark.parametrize("n, bits", [(12, 8), (12, 100), (120, 8)])
def test_batch_mul_promotes_as_the_scalar_product_does(n, bits):
    rng = random.Random(n * bits)
    xs = [_draw(rng, n, bits) for _ in range(3)]
    a = cyclotomic.stack(xs, n)
    for m in (3 * n, 5 * n):
        wide = _draw(rng, m, 4)
        got = (a * wide).values()
        assert [v.conductor for v in got] == [m] * len(xs)
        assert got == [x * wide for x in xs]


def test_batch_sums_stacks_and_concats_land_on_the_lcm_of_conductors():
    # as CyclotomicReal sums do: rows on 12 and 20 meet on 60
    rng = random.Random(47)
    xs = [_draw(rng, 12, 8) for _ in range(3)]
    ys = [_draw(rng, 20, 8) for _ in range(3)] + [CyclotomicReal.from_rational(Fraction(1, 3))]
    a, b = cyclotomic.stack(xs), cyclotomic.stack(ys)
    assert (a.n, b.n) == (12, 20)
    total, difference = a + b.take(slice(3)), a - b.take([3])
    assert total.values() == [x + y for x, y in zip(xs, ys)]
    assert difference.values() == [x - ys[3] for x in xs]
    assert cyclotomic.stack(xs + ys).values() == cyclotomic.concat([a, b]).values() == xs + ys
    assert cyclotomic.concat([a], 5).values() == xs
    for batch in (total, difference, cyclotomic.stack(xs + ys), cyclotomic.concat([a, b]),
                  cyclotomic.concat([a], 5)):
        assert batch.n == 60


@pytest.mark.parametrize("n, m, bits", [(12, 12, 8), (120, 120, 8), (120, 360, 8), (1980, 1980, 4),
                                        (1980, 1980, 8), (120, 120, 100), (1980, 1980, 100)])
def test_multiplier_rows_are_the_products_by_powers_of_zeta(n, m, bits):
    # row j is x * zeta_n^j on Q(zeta_m), as CyclotomicReal multiplies; a
    # 100-bit x leaves int64, and then no matrix is built
    rng = random.Random(n * m + bits)
    x = _draw(rng, m, bits)
    built = cyclotomic._multiplier(n, x._num, m)
    if bits == 100:
        assert built is None
        return
    matrix, width = built
    assert matrix.dtype == np.int64 and width == cyclotomic._bits(matrix) <= 62
    assert matrix.shape == (euler_phi(n), euler_phi(m))
    for j in range(euler_phi(n) - 1, -1, -1 if n < 1980 else -17):  # from the last row
        zeta = CyclotomicReal._make(n, cyclotomic._power_sum(n, [(j, 1)]), 1)
        assert CyclotomicReal._make(m, matrix[j].tolist(), x._den) == x * zeta


def test_multiplier_turns_away_a_wide_x_before_reducing(monkeypatch):
    # row 0 is x itself, so a dense 100-bit x at n = 1980 can never give an
    # int64 matrix and is turned away before any row is reduced
    x = _draw(random.Random(7), 1980, 100)

    def no_reduction(*args):
        raise AssertionError("row reduced")

    monkeypatch.setattr(cyclotomic, "_reduce_product", no_reduction)
    assert cyclotomic._multiplier.__wrapped__(1980, x._num, 1980) is None


@pytest.mark.parametrize("n, bits", [(12, 8), (120, 30), (1980, 8), (1980, 100)])
def test_batch_mul_by_a_rational_scales_the_rows(n, bits, monkeypatch):
    # p = 0 and p = 1 of the frame directions, and scalars that push the
    # rows past int64; no phi x phi multiplier is built for any of them
    rng = random.Random(n * bits + 1)
    xs = [_draw(rng, n, bits) for _ in range(3)] + [CyclotomicReal.from_rational(0, n)]
    a = cyclotomic.stack(xs, n)

    def no_matrix(*args):
        raise AssertionError("multiplier matrix built")

    monkeypatch.setattr(cyclotomic, "_multiplier", no_matrix)
    for c in (0, 1, Fraction(-3, 4), 2**40 + 1, Fraction(1, 2**61 - 1)):
        for conductor in (1, n):
            got = a * CyclotomicReal.from_rational(c, conductor)
            want = cyclotomic.stack([x * c for x in xs], n)
            assert (got.num_bits, got.den_bits) == (want.num_bits, want.den_bits)
            assert got.num.dtype == want.num.dtype and got.den.dtype == want.den.dtype
            assert got.rows() == want.rows()


@pytest.mark.parametrize("n", [1, 12, 120, 1980])
def test_batch_decimals_and_coefficient_strings_match_each_row(n, monkeypatch):
    # 8-bit rows take the int64 limb products; 50-bit rows are int64 but
    # leave no room for a limb, and 100-bit rows are Python ints: both
    # finish row by row through decimal
    rng = random.Random(n + 3)
    fetched = []
    endpoints = cyclotomic._cos_endpoints

    def spy(n, j, prec):
        fetched.append(j)
        return endpoints(n, j, prec)

    monkeypatch.setattr(cyclotomic, "_cos_endpoints", spy)
    for bits, kernel in ((8, True), (50, False), (100, False)):
        xs = [_draw(rng, n, bits) for _ in range(3)]
        # a sparse row, so that the batch has zero columns
        sparse = [0] * euler_phi(n)
        sparse[0], sparse[-1] = _coefficient(rng, bits), _coefficient(rng, bits)
        xs += [CyclotomicReal._make(n, sparse, 3), CyclotomicReal.from_rational(0, n)]
        for batch in (cyclotomic.stack(xs, n), cyclotomic.stack(xs[3:], n)):
            del fetched[:]
            boxes = cyclotomic._enclosures(batch)
            assert (boxes is not None) == kernel, (bits, batch.num.dtype)
            nonzero = {j for row, _ in batch.rows() for j, c in enumerate(row) if c}
            assert set(fetched) <= nonzero
            if boxes is not None:
                # the enclosure of _enclosure_at, integer for integer
                for box, x in zip(boxes, batch.values()):
                    assert box == x._enclosure_at(cyclotomic._FIRST_PREC)
                # 30 digits are past the first precision, so every irrational
                # row takes the _refine path; rationals have exact enclosures
                texts = [cyclotomic._decimal_text(*box, 30) for box in boxes]
                assert (None in texts) == (n > 1) and texts[-1] == "0." + "0" * 30
            for digits in (0, 12, 30):
                assert batch.decimals(digits) == [x.decimal(digits) for x in batch.values()]
            strings = [x.coefficient_strings() for x in batch.values()]
            assert batch.coefficient_strings() == strings
    empty = cyclotomic.stack([], n)
    assert empty.decimals(12) == [] and empty.coefficient_strings() == []


def _is_prime_reference(m):
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


@pytest.mark.parametrize("n", [1, 12, 120, 1980, 13860])
def test_split_prime_is_the_least_prime_one_mod_n_above_2_to_30(n):
    q = cyclotomic.split_prime(n)
    assert 2**30 < q < 2**31 and q % n == 1 % n and _is_prime_reference(q)
    assert not any(_is_prime_reference(m) for m in range(q - n, 2**30, -n))


def _from_rows(n, terms, den=1):
    """The sum of c * zeta_n^k over (k, c), read off the reference table."""
    rows, num = _zeta_power_rows_reference(n), [0] * euler_phi(n)
    for k, c in terms:
        if not c:
            continue
        for i, t in enumerate(rows[k % n]):
            num[i] += c * t
    return CyclotomicReal._make(n, num, den)


def _sigma(x, a):
    """sigma_a(x), zeta -> zeta^a, on the power basis."""
    return _from_rows(x.conductor, [(a * j, c) for j, c in enumerate(x._num)], x._den)


@pytest.mark.parametrize("n", [1, 12, 120, 1980])
def test_evaluation_is_a_ring_map_at_the_roots_of_phi_n(n):
    q, units = cyclotomic.split_prime(n), cyclotomic.units(n)
    roots = cyclotomic._root_powers(n)[[a % n for a in units]].tolist()
    assert len(set(roots)) == len(units) == euler_phi(n)
    primes = [r for r in range(2, n + 1) if n % r == 0 and _is_prime_reference(r)]
    for w in roots:  # exact order n
        assert pow(w, n, q) == 1 and all(pow(w, n // r, q) != 1 for r in primes)
    zeta = CyclotomicReal._make(n, _zeta_power_rows_reference(n)[1 % n], 1)
    assert cyclotomic.evaluate(zeta, n).tolist() == roots
    rng = random.Random(n)
    at = {a % n: k for k, a in enumerate(units)}
    for bits in (1, 8, 100):
        x, y = _draw(rng, n, bits), _draw(rng, n, bits)
        ex, ey = cyclotomic.evaluate(x, n), cyclotomic.evaluate(y, n)
        assert (cyclotomic.evaluate(x * y, n) == ex * ey % q).all()
        assert (cyclotomic.evaluate(x + y, n) == (ex + ey) % q).all()
        # sigma_a(x) at the root w^b is x at w^(ab)
        for a in rng.sample(units, min(3, len(units))):
            moved = cyclotomic.evaluate(_sigma(x, a), n).tolist()
            assert moved == [ex[at[a * b % n]] for b in units]
        # the denominator is invertible mod q exactly when q does not divide it
        assert cyclotomic.evaluate(x * Fraction(1, q), n) is None
        assert cyclotomic.evaluate(x * Fraction(q, 3 * q + 1), n).tolist() == [0] * len(units)
    zero = CyclotomicReal.from_rational(0)
    assert cyclotomic.evaluate(zero, n).tolist() == [0] * len(units)


def _evaluate_reference(x, n):
    """The former evaluation, one coefficient at a time: each nonzero c_j
    adds c_j * w^(aj) for all a at once, one gather from _root_powers."""
    q = cyclotomic.split_prime(n)
    if x._den % q == 0:
        return None
    w, a = cyclotomic._root_powers(n), np.array(cyclotomic.units(n), np.int64)
    acc = np.zeros(len(a), np.int64)
    for j, c in enumerate(x.to_conductor(n)._num):
        if c:
            acc += w[a * j % n] * (c % q) % q
    return acc % q * pow(x._den, -1, q) % q


@pytest.mark.parametrize("n", [1980, 13860])
def test_blocked_evaluation_matches_the_per_coefficient_loop(n):
    # dense signed 64-bit coefficients, a tenth of them multiples of q,
    # over denominators other than 1: phi(n) coefficients cross many
    # blocks of 32 coefficients by 8,192 // 32 roots
    q, phi = cyclotomic.split_prime(n), euler_phi(n)
    rng = random.Random(n)
    for den in (1, 3, 7 * 11 * 13, 2**64 + 13):
        num = [rng.randrange(-2**63, 2**63) for _ in range(phi)]
        for j in rng.sample(range(phi), phi // 10):
            num[j] = q * rng.randrange(-2**32, 2**32)
        x = CyclotomicReal._make(n, num, den)
        assert x._den == den and sum(c % q == 0 for c in x._num) >= phi // 10
        assert (cyclotomic.evaluate(x, n) == _evaluate_reference(x, n)).all()
    # every coefficient a multiple of q, a sparse element, and its lift to
    # the conductor n from a subfield
    for y in (x * q, CyclotomicReal._make(n, [0] * (phi - 3) + [5, -q, 2**70], 9), sin_of(Angle(1, 5))):
        assert (cyclotomic.evaluate(y, n) == _evaluate_reference(y, n)).all()
    assert not cyclotomic.evaluate(x * q, n).any()
    # q divides the denominator
    assert cyclotomic.evaluate(x * Fraction(1, q), n) is None
    assert _evaluate_reference(x * Fraction(1, q), n) is None


def _same(x, y):
    return (x.conductor, x._num, x._den) == (y.conductor, y._num, y._den)


# slope sets whose p-values and ratio elements are real elements at n
_SETS_AT = {
    12: ["0", "pi/6", "pi/3", "pi/2"],
    120: ["0", "pi/5", "pi/4", "pi/3"],
    1980: ["0", "pi/11", "5pi/9", "7pi/10"],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 12, 15, 120, 1980])
def test_power_sums_match_the_power_table_reference(n):
    rng = random.Random(n)
    # promotion from every divisor c of n
    for c in _divisors(n):
        x = _draw(rng, c, 8)
        want = _from_rows(n, [(j * (n // c), a) for j, a in enumerate(x._num)], x._den)
        assert _same(x.to_conductor(n), want)
    # sigma_a on every unit up to n = 120 and on a sample at 1980: random
    # elements, real ones and numerators that are multiples of q, which
    # vanish mod q, so the exact branch decides
    q, units = cyclotomic.split_prime(n), cyclotomic.units(n)
    xs = [_draw(rng, n, 8), _draw(rng, n, 30), _from_rows(n, [(1, 1), (-1, 1)])]
    if n in _SETS_AT:
        u = SlopeSet(_SETS_AT[n])
        xs += list(u.p_table.values()) + [r.to_conductor(n) for r in ratio_elements(u)]
    xs += [_from_rows(n, [(1, q), (-1, q)], 2), _from_rows(n, [(1, q), (2, 3 * q)])]
    sample = units if n <= 120 else rng.sample(units, 6) + [n - 1]
    outcomes = set()
    for x in xs:
        for a in sample:
            fixed = _same(_sigma(x, a), x)
            assert x.is_fixed_by(a) == fixed, (x, a)
            outcomes.add((fixed, all(c % q == 0 for c in x._num)))
    assert (True, False) in outcomes and (True, True) in outcomes
    if n > 2:  # sigma_a moves some elements, among them multiples of q
        assert (False, False) in outcomes and (False, True) in outcomes
    # cos and sin of the angles of conductor n, as zeta^m + zeta^-m and
    # zeta^(n/4 - m) + zeta^(m - n/4) over 2, theta = 2*pi*m/n
    angles = [Angle(k, d) for d in _divisors(n) for k in range(d)
              if math.gcd(k, d) == 1 and Angle(k, d).conductor == n]
    for angle in angles if n <= 120 else rng.sample(angles, 20):
        m = angle.numerator * n // (2 * angle.denominator)
        assert _same(cos_of(angle), _from_rows(n, [(m, 1), (-m, 1)], 2))
        assert _same(sin_of(angle), _from_rows(n, [(n // 4 - m, 1), (m - n // 4, 1)], 2))


def _legendre(a, p):
    """The Legendre symbol (a/p) of a unit a by Euler's criterion."""
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 103])
def test_square_roots_match_the_gauss_sums_of_the_reference_table(p):
    # sqrt(p) is the Gauss sum, the sum of (a/p) zeta_p^a over the units a,
    # for p = 1 mod 4, and -zeta_4 times it over zeta_4p for p = 3 mod 4;
    # sqrt(2) is zeta_8 + zeta_8^-1
    if p == 2:
        want = _from_rows(8, [(1, 1), (-1, 1)])
    elif p % 4 == 1:
        want = _from_rows(p, [(a, _legendre(a, p)) for a in range(1, p)])
    else:
        terms = [(4 * a + p, -_legendre(a, p)) for a in range(1, p)]
        want = _from_rows(4 * p, terms)
    x = sqrt_rational(p)
    assert _same(x, want)
    assert x * x == p and x.sign() == 1


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_conductors_build_no_table_of_zeta_powers():
    # sqrt(10007) is a Gauss sum at conductor 40028 and the p-values of
    # this set lie at 13860: a table of all n reduced powers of zeta
    # would take about 6 GB and 310 MB.  Squaring sqrt(10007) would take
    # minutes, since Phi_40028 has 10,007 nonzero coefficients.
    cyclotomic._sqrt_prime.cache_clear()
    assert _traced_peak(lambda: sqrt_rational(10007)) < 32 * 2**20
    u = SlopeSet(["0", "pi/9", "2pi/11", "pi/5", "3pi/7"])
    assert u.working_conductor == 13860
    assert _traced_peak(lambda: u.p_table) < 32 * 2**20
