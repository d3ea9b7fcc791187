"""Exact arithmetic for real elements of cyclotomic fields.

A CyclotomicReal is a real algebraic number written on the power basis
1, zeta, ..., zeta^(phi(n)-1) of Q(zeta_n), zeta_n = exp(2*pi*i/n),
as an integer coefficient vector over a common positive denominator.
The representation is canonical (reduced modulo the n-th cyclotomic
polynomial, gcd-normalized), so equality and zero tests are exact
vector comparisons after conductor promotion.  Every sum of terms
c * zeta^k reaches the power basis by one long division by the monic,
sparse Phi_n: a product's convolution (schoolbook for short vectors,
else one Kronecker-substitution big-integer product), each row of a batch
multiplier (the row before, shifted one place) and, through _power_sum,
promotion, the Galois action, the constructors and the n-ary sum sum_of.  An inverse is found
modulo the split prime q of the conductor (below) by an int64 Euclid in
F_q[X], lifted by Newton steps modulo q^(2^k) and read off by rational
reconstruction; it is exact because it is returned only once x * y == 1
holds exactly.

The constructors cover everything the rest of the package needs:
rationals, sin and cos of rational multiples of pi, and square roots
of nonnegative rationals (via quadratic Gauss sums).  Signs are decided
exactly: zero is a representation check, and nonzero signs fall out of
certified interval evaluation at increasing precision, which must
terminate because the number is not zero.  An enclosure at precision prec
is an integer sum of c_j times enclosures of cos(2*pi*j/n) on the grid
2^-prec.  Those are read off fixed-point powers of zeta_n, baby steps
zeta^j for j < B = ceil(sqrt(phi(n))) and giant steps zeta^(kB), built
once per (n, prec) from one mpmath enclosure of zeta_n and carrying a
proven error bound through every product; a decimal rounds an
enclosure's midpoint in integers.

Batch kernels hold K elements of one field as a K x phi integer matrix
over a vector of denominators.  A product by a fixed x is one matrix
product (row j of the matrix is x * zeta^j); sums go over the lcm of the
denominators, and rows are normalized as CyclotomicReal is, after each
Batch operation or, for a formula run on Deferred rows, once per result
(settle).  Products,
sums, stacks and concatenations land on the lcm of their conductors, as
CyclotomicReal arithmetic does, so no caller promotes by hand.  A kernel
runs in int64 when its result is provably below 2^62, for a product when
bits(A) + bits(M) + bits(phi) + 1 <= 62, and otherwise on Python ints.
A batch's decimals round enclosures of all its rows at once, one int64
product per limb of the cos endpoints.

One cached O(n) vector of the powers of a root of unity w modulo the split
prime q evaluates an element at all roots of Phi_n mod q (evaluate), in
gathered blocks of at most 8,192 entries.

An element is rewritten into a subfield Q(zeta_m) by an exact trace over
the degree, kept only when it promotes back to the element (_descend);
the hash reads the canonical form on the least conductor so reached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Iterable, NamedTuple, Sequence, Union

import mpmath
import numpy as np
from mpmath import iv

from .angles import Angle

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# integer polynomial helpers (lowest coefficient first)


@cache
def _primes(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n, increasing, by trial division."""
    out, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return tuple(out + [m] if m > 1 else out)


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, lowest first.

    Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n, and Phi_2m(x) =
    Phi_m(-x) for odd m > 1.  An odd squarefree m = p_1 ... p_k grows prime
    by prime from Phi_p1 = 1 + x + ... + x^(p1-1), as Phi_mp(x) =
    Phi_m(x^p) / Phi_m(x): an exact division, lowest coefficient first, by
    the sparse Phi_m with constant term 1.
    """
    odd = [p for p in _primes(n) if p > 2]
    poly = [1] * odd[0] if odd else [-1, 1]  # Phi_1 = x - 1
    for p in odd[1:]:
        tail = [(k, c) for k, c in enumerate(poly) if c and k]
        quotient: list[int] = []
        for i in range((len(poly) - 1) * (p - 1) + 1):
            top = poly[i // p] if i % p == 0 else 0
            quotient.append(top - sum(c * quotient[i - k] for k, c in tail if k <= i))
        poly = quotient
    if n % 2 == 0:
        poly = [c if k % 2 == 0 else -c for k, c in enumerate(poly)] if odd else [1, 1]
    step = n // math.prod(_primes(n))
    spread = [0] * ((len(poly) - 1) * step + 1)
    spread[::step] = poly
    return tuple(spread)


@cache
def euler_phi(n: int) -> int:
    primes = _primes(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes)


# Shorter operands take the schoolbook loop, which skips zeros and wins on
# the mostly sparse phi-32 products of conductor 120 (crossover: CHANGES.md).
_KRONECKER_MIN_LEN = 40


def _pack(coeffs: Sequence[int], width: int, mask: int) -> int:
    """The integer sum of c_i * 2^(8*width*i); mask holds each slot's top bit."""
    data = b"".join(c.to_bytes(width, "little", signed=True) for c in coeffs)
    v = int.from_bytes(data, "little")
    return v - ((v & mask) << 1)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer polynomials, lowest coefficient first."""
    size = len(a) + len(b) - 1
    short = min(len(a), len(b))
    if short < _KRONECKER_MIN_LEN:
        raw = [0] * size
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        raw[i + j] += x * y
        return raw
    # Kronecker substitution: every product coefficient is below
    # short * 2^(bits(a) + bits(b)) in size, so slots of that many bits
    # plus a sign bit keep them apart in one big-integer product.
    bits = max(map(int.bit_length, a)) + max(map(int.bit_length, b))
    width = (bits + short.bit_length() + 8) // 8
    mask = int.from_bytes((b"\x00" * (width - 1) + b"\x80") * size, "little")
    z = (_pack(a, width, mask) * _pack(b, width, mask) + mask) ^ mask
    data = z.to_bytes(width * size, "little")
    return [
        int.from_bytes(data[k : k + width], "little", signed=True)
        for k in range(0, width * size, width)
    ]


@cache
def _phi_tail(n: int) -> tuple[tuple[int, int], ...]:
    """(i - phi, -c) for each nonzero coefficient c of x^i, i < phi, in Phi_n."""
    poly = cyclotomic_polynomial(n)
    return tuple((i - len(poly) + 1, -c) for i, c in enumerate(poly[:-1]) if c)


def _reduce_product(raw: list[int], n: int) -> list[int]:
    """Reduce raw modulo the monic, sparse Phi_n by long division; raw is consumed."""
    phi = euler_phi(n)
    tail = _phi_tail(n)
    for j in range(len(raw) - 1, phi - 1, -1):
        c = raw[j]
        if c:
            for offset, t in tail:
                raw[j + offset] += c * t
    return raw[:phi] + [0] * (phi - len(raw))


def _power_sum(n: int, terms: Iterable[tuple[int, int]]) -> list[int]:
    """The sum of c * zeta_n^k over (k, c) on the power basis: scattered into a
    raw vector, folded by zeta_n^(n/2) = -1 when n is even, then reduced by
    long division by Phi_n."""
    half = n // 2 if n % 2 == 0 else n
    raw = [0] * half
    for k, c in terms:
        k %= n
        if k < half:
            raw[k] += c
        else:
            raw[k - half] -= c
    return _reduce_product(raw, n)


def _inverse_mod_prime(f: Sequence[int], n: int, q: int) -> "list[int] | None":
    """g with f*g = 1 mod (q, Phi_n) by Euclid in F_q[X]; None if none exists.
    q < 2^31, so every a - c*b of residues fits in int64."""
    r0 = np.array(cyclotomic_polynomial(n), np.int64) % q
    r1 = np.array([c % q for c in f], np.int64)
    s0, s1 = np.zeros(1, np.int64), np.ones(1, np.int64)  # s_i * f = r_i mod (q, Phi_n)
    while True:
        while len(r1) and not r1[-1]:
            r1 = r1[:-1]
        if len(r1) <= 1:
            break
        top, lead, size = len(r1) - 1, pow(int(r1[-1]), -1, q), len(s1)
        s0 = np.concatenate([s0, np.zeros(len(r0) - top + size - 1 - len(s0), np.int64)])
        for k in range(len(r0) - top - 1, -1, -1):
            c = int(r0[k + top]) * lead % q
            r0[k : k + top] = (r0[k : k + top] - c * r1[:top]) % q
            s0[k : k + size] = (s0[k : k + size] - c * s1) % q
        r0, r1 = r1, r0[:top]
        s0, s1 = s1, s0
    if not len(r1):
        return None
    scale = pow(int(r1[0]), -1, q)
    return [int(c) * scale % q for c in s1] + [0] * (len(f) - len(s1))


def _reconstruct(g: Sequence[int], m: int) -> "tuple[list[int], int] | None":
    """(h, d) with g = h/d mod m and |h_i|, d <= sqrt(m/2), or None; the half
    extended Euclid reads off each g_i * d, and its denominator joins d."""
    bound, d = math.isqrt(m // 2), 1
    for c in g:
        r0, r1, t0, t1 = m, c * d % m, 0, 1
        while r1 > bound:
            k = r0 // r1
            r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
        d *= abs(t1)
        if d > bound:
            return None
    h = [(c * d + bound) % m - bound for c in g]
    return (h, d) if all(abs(c) <= bound for c in h) else None


def _normalize(num: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    num = tuple(num)
    if den < 0:
        num, den = tuple(-c for c in num), -den
    if not any(num):
        return num, 1
    g = math.gcd(den, *num)
    return (tuple(c // g for c in num), den // g) if g > 1 else (num, den)


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _decimal_text(lo: int, hi: int, den: int, digits: int) -> "str | None":
    """The midpoint of [lo/den, hi/den] to digits decimals, rounded half to
    even as Fraction.__round__ does; None while the enclosure is wider than
    a hundredth of the last digit."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    scale = 10**digits
    if (hi - lo) * scale * 100 > den:
        return None
    scaled, rest = divmod(abs(lo + hi) * scale, 2 * den)
    if rest > den or (rest == den and scaled % 2):
        scaled += 1
    sign = "-" if lo + hi < 0 else ""
    text = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


# ---------------------------------------------------------------------------
# certified interval evaluation


@dataclass(frozen=True)
class Interval:
    """A closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        return f"[{float(self.lo)!r}, {float(self.hi)!r}]"


# Enclosures start at this binary precision and double until narrow enough.
_FIRST_PREC = 64


def _fixed(x, bits: int) -> tuple[int, int]:
    """(v, e) with |v - x * 2^bits| <= e for an mpmath interval x: the floor
    and ceiling of its scaled endpoints, and v their midpoint."""
    lo, hi = (Fraction(*mpmath.libmp.to_rational(r)) * 2**bits for r in x._mpi_)
    lo, hi = math.floor(lo), math.ceil(hi)
    mid = (lo + hi) // 2
    return mid, hi - mid


def _times(a, b, bits: int) -> tuple[int, int, int]:
    """The fixed-point product of complex steps (re, im, e) with 2^bits
    fractional bits.  Each exact value has modulus 1 and each e bounds the
    modulus of its step's error in ulps, so the exact product of the steps
    errs by at most e_a + e_b + e_a*e_b/2^bits, and flooring each part adds
    under two more: e <= e_a + e_b + ceil(3*e_a*e_b / 2^bits) + 2."""
    (ar, ai, ea), (br, bi, eb) = a, b
    err = ea + eb - (-3 * ea * eb >> bits) + 2
    return (ar * br - ai * bi) >> bits, (ar * bi + ai * br) >> bits, err


@lru_cache(maxsize=64)
def _zeta_steps(n: int, prec: int) -> tuple[tuple, tuple, int]:
    """(baby, giant, bits): zeta^j for j < B = ceil(sqrt(phi(n))) and
    zeta^(kB) for kB < phi(n), as fixed-point steps (re, im, e) with
    bits = prec + 2*bits(phi) + 8 fractional bits, e a proven bound on the
    modulus of the step's error in ulps (_times).  One mpmath enclosure of
    zeta_n, iv.cos and iv.sin of 2*pi/n, seeds every power; zeta^0 is exact."""
    phi = euler_phi(n)
    bits = prec + 2 * phi.bit_length() + 8
    old = iv.prec
    iv.prec = bits + 8
    try:
        angle = iv.pi * 2 / n
        (re, re_err), (im, im_err) = _fixed(iv.cos(angle), bits), _fixed(iv.sin(angle), bits)
    finally:
        iv.prec = old
    step, one, zeta = math.isqrt(phi - 1) + 1, (1 << bits, 0, 0), (re, im, re_err + im_err)
    baby = [one]
    while len(baby) <= step:
        baby.append(_times(baby[-1], zeta, bits))
    big = baby.pop()  # zeta^B
    giant = [one]
    while len(giant) * step < phi:
        giant.append(_times(giant[-1], big, bits))
    return tuple(baby), tuple(giant), bits


# The cache is bounded: a dense element at a large conductor, such as the
# Gauss sum of sqrt(1000003) with 500,002 nonzero coefficients, would fill
# an unbounded one with an entry per coefficient and precision.
@lru_cache(maxsize=2**14)
def _cos_endpoints(n: int, j: int, prec: int) -> tuple[int, int, int]:
    """A certified enclosure of cos(2*pi*j/n), j < phi(n), at binary precision
    prec, as integers (lo, hi, -prec) for the endpoints lo * 2^-prec and
    hi * 2^-prec: Re(zeta^(j mod B) * zeta^(B * (j div B))) from _zeta_steps,
    widened by the product's error bound and rounded outward.  It is at most
    two ulps wide, and exactly [1, 1] at j = 0."""
    baby, giant, bits = _zeta_steps(n, prec)
    (ar, ai, ea), (br, bi, eb) = baby[j % len(baby)], giant[j // len(baby)]
    re = ar * br - ai * bi  # on 2^(2*bits), exact, as is its error bound
    err = (ea + eb << bits) + ea * eb
    shift = 2 * bits - prec
    return (re - err) >> shift, -((-re - err) >> shift), -prec


# ---------------------------------------------------------------------------


class CyclotomicReal:
    """An exact real number inside a cyclotomic field Q(zeta_n)."""

    __slots__ = ("conductor", "_num", "_den")

    def __init__(self, conductor: int, num: tuple[int, ...], den: int, _raw: bool = False):
        if not _raw:
            raise TypeError(
                "use from_rational / from_coeffs / sin_of / cos_of / sqrt_rational"
            )
        self.conductor = conductor
        self._num = num
        self._den = den

    @classmethod
    def _make(cls, conductor: int, num: Iterable[int], den: int) -> "CyclotomicReal":
        num, den = _normalize(num, den)
        return cls(conductor, num, den, _raw=True)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rational, conductor: int = 1) -> "CyclotomicReal":
        q = Fraction(value)
        num = [q.numerator] + [0] * (euler_phi(conductor) - 1)
        return cls._make(conductor, num, q.denominator)

    @classmethod
    def from_coeffs(
        cls, conductor: int, coeffs: Sequence[Rational]
    ) -> "CyclotomicReal":
        """Build from all phi(conductor) basis coefficients; rejects non-real elements."""
        fracs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if conductor < 1:
            raise ValueError(f"conductor must be a positive integer, got {conductor}")
        if conductor > 2 * len(fracs) ** 2:  # phi(n) >= sqrt(n/2): refused before factoring
            raise ValueError(f"conductor {conductor} needs more than {len(fracs)} coefficients")
        phi = euler_phi(conductor)
        if len(fracs) != phi:
            raise ValueError(f"expected {phi} coefficients, got {len(fracs)}")
        den = math.lcm(*(f.denominator for f in fracs))
        num = [f.numerator * (den // f.denominator) for f in fracs]
        x = cls._make(conductor, num, den)
        if not x.is_fixed_by(-1):
            raise ValueError("coefficients describe a non-real element")
        return x

    # -- representation -----------------------------------------------------

    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients over the power basis of Q(zeta_conductor)."""
        return tuple(Fraction(c, self._den) for c in self._num)

    def coefficient_strings(self) -> tuple[str, ...]:
        """The coefficients as str(Fraction) writes them, built from integers."""
        return tuple(_ratio_text(c, self._den) for c in self._num)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self._num)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self._num[1:])

    @property
    def is_integer(self) -> bool:
        return self.is_rational and self._den == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    def is_fixed_by(self, a: int) -> bool:
        """Whether sigma_a: zeta -> zeta^a fixes x; a is a unit mod n.

        The numerator f = sum c_j zeta^j is first compared at w and at w^a
        mod q = split_prime(n); evaluation is a ring map, so a mismatch
        proves sigma_a(f) != f.  On a match sigma_a(f) = sum c_j zeta^(aj)
        is written out by _power_sum and compared exactly.  Complex
        conjugation is sigma_(-1).
        """
        n = self.conductor
        q, w = split_prime(n), _root_powers(n)
        terms = [(j, c) for j, c in enumerate(self._num) if c]
        at = np.array([j for j, _ in terms], np.int64)
        res = np.array([c % q for _, c in terms], np.int64)
        if (res * w[at] % q).sum() % q != (res * w[a * at % n] % q).sum() % q:
            return False
        return _power_sum(n, ((a * j, c) for j, c in terms)) == list(self._num)

    def to_conductor(self, n: int) -> "CyclotomicReal":
        """Rewrite on the power basis of Q(zeta_n), n a multiple of the
        conductor c: zeta_c^j is zeta_n^(j*n/c), summed by _power_sum."""
        if n == self.conductor:
            return self
        if n % self.conductor:
            raise ValueError(f"{n} is not a multiple of conductor {self.conductor}")
        step = n // self.conductor
        terms = ((j * step, c) for j, c in enumerate(self._num) if c)
        return CyclotomicReal._make(n, _power_sum(n, terms), self._den)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CyclotomicReal | None":
        if isinstance(value, CyclotomicReal):
            return value
        if isinstance(value, (int, Fraction)):
            return CyclotomicReal.from_rational(value)
        return None

    def _common(self, other: "CyclotomicReal"):
        n = math.lcm(self.conductor, other.conductor)
        return self.to_conductor(n), other.to_conductor(n), n

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, n = self._common(o)
        den = math.lcm(a._den, b._den)
        fa, fb = den // a._den, den // b._den
        num = [fa * x + fb * y for x, y in zip(a._num, b._num)]
        return CyclotomicReal._make(n, num, den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicReal(
            self.conductor, tuple(-c for c in self._num), self._den, _raw=True
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # a conductor-1 rational on either side scales the other one
        x, r = (o, self) if self.conductor == 1 else (self, o)
        if r.conductor == 1:
            return CyclotomicReal._make(x.conductor, (r._num[0] * c for c in x._num), x._den * r._den)
        a, b, n = self._common(o)
        raw = _convolve(a._num, b._num)
        return CyclotomicReal._make(n, _reduce_product(raw, n), a._den * b._den)

    __rmul__ = __mul__

    def inv(self) -> "CyclotomicReal":
        """Exact multiplicative inverse.

        The numerator f is inverted mod (q, Phi_n) by Euclid in F_q[X], q =
        split_prime(n) or, while q divides the norm of f, the next prime
        q = 1 (mod n) below 2^31; it is lifted by Newton steps mod q^(2^k)
        and rationally reconstructed.  A candidate y is returned only when
        x * y == 1 holds exactly, so it never depends on q or k.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        n, f = self.conductor, self._num
        if self.is_rational:
            return CyclotomicReal._make(n, (self._den,) + f[1:], f[0])
        m = split_prime(n)  # the prime q, then q^(2^k) as g is lifted
        while (g := _inverse_mod_prime(f, n, m)) is None:
            m = next(p for p in range(m + n, 2**31, n) if mpmath.libmp.isprime(p))
        while True:
            if (found := _reconstruct(g, m)) is not None:
                y = CyclotomicReal._make(n, [self._den * c for c in found[0]], found[1])
                if self * y == 1:
                    return y
            # Newton step g <- g*(2 - f*g) = g - m*g*t, where f*g = 1 + m*t
            # and so t = f*g // m coefficientwise
            t = [c // m for c in _reduce_product(_convolve(f, g), n)]
            gt = _reduce_product(_convolve(g, t), n)
            g = [(a - m * b) % (m * m) for a, b in zip(g, gt)]
            m *= m

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = CyclotomicReal.from_rational(1, self.conductor)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.conductor == o.conductor:
            return self._num == o._num and self._den == o._den
        a, b, _ = self._common(o)
        return a._num == b._num and a._den == b._den

    def __hash__(self):
        # the canonical form on the least conductor, where equal values meet
        x = self
        for p in _primes(self.conductor):
            while x.conductor % p == 0 and (y := _descend(x, p)) is not None:
                x = y
        return hash((x.conductor, x._num, x._den))

    # -- numeric evaluation --------------------------------------------------

    def _enclosure_at(self, prec: int) -> tuple[int, int, int]:
        """(lo, hi, den) with x in [lo/den, hi/den], den = d * 2^prec: the
        integer sums of c_j times the endpoints of _cos_endpoints(n, j, prec),
        fetched for nonzero c_j only, so at most 2 * sum|c_j| ulps wide and
        exact for a rational x."""
        lo = hi = 0
        n = self.conductor
        for j, c in enumerate(self._num):
            if c:
                a, b, _ = _cos_endpoints(n, j, prec)
                if c < 0:
                    a, b = b, a
                lo += c * a
                hi += c * b
        return lo, hi, self._den << prec

    def _refine(self, done, prec: int = _FIRST_PREC):
        """The first done(lo, hi, den) that is not None, over enclosures at
        doubling precision from prec."""
        while (out := done(*self._enclosure_at(prec))) is None:
            prec *= 2
        return out

    def interval(self, max_width: Rational = Fraction(1, 10**15)) -> Interval:
        """A certified enclosure no wider than max_width: an integer sum of
        the fixed-point enclosures of the cosines cos(2*pi*j/n), built from
        one enclosure of zeta_n (see _enclosure_at and _zeta_steps)."""
        w = Fraction(max_width)
        if w <= 0:
            raise ValueError("max_width must be positive")
        return self._refine(
            lambda lo, hi, den: Interval(Fraction(lo, den), Fraction(hi, den))
            if (hi - lo) * w.denominator <= w.numerator * den
            else None
        )

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1."""
        if self.is_zero:
            return 0
        if self.is_rational:
            return -1 if self._num[0] < 0 else 1
        return self._refine(lambda lo, hi, den: 1 if lo > 0 else -1 if hi < 0 else None)

    def __float__(self) -> float:
        return float(self.interval(Fraction(1, 10**17)).midpoint)

    def decimal(self, digits: int = 12) -> str:
        """Decimal string certified to the requested number of digits: an
        enclosure's midpoint, rounded half to even as Fraction.__round__ does.

        The enclosure of each cos(2*pi*j/n), j > 0, is at least one ulp wide
        (_cos_endpoints widens it by a positive error bound), so one at
        precision P is at least S = sum_{j>0} |c_j| ulps wide; each P of the
        doubling sequence with S * 10^digits * 100 > den * 2^P, whose
        enclosure _decimal_text would reject, is skipped unbuilt."""
        # (negative digits raise in _decimal_text)
        prec, floor = _FIRST_PREC, sum(map(abs, self._num[1:])) * 100 * 10 ** max(digits, 0)
        while floor > self._den << prec:
            prec *= 2
        return self._refine(lambda lo, hi, den: _decimal_text(lo, hi, den, digits), prec)

    # -- misc ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.as_rational())
        return f"<{float(self):.12g} in Q(zeta_{self.conductor})>"

    def __repr__(self) -> str:
        return (
            f"CyclotomicReal(conductor={self.conductor}, "
            f"coeffs={list(self.coefficient_strings())})"
        )

    def __bool__(self) -> bool:
        return not self.is_zero


# ---------------------------------------------------------------------------
# batch kernels: many elements of one field as one integer matrix

# Larger results run on Python ints, never through an object-dtype matmul.
_INT64_BITS = 62


def _bits(a: np.ndarray) -> int:
    """Bit length of the largest magnitude in a, exact for either dtype."""
    return max(-int(a.min(initial=0)), int(a.max(initial=0))).bit_length()


def _array(data) -> np.ndarray:
    try:
        return np.array(data, np.int64)
    except OverflowError:
        return np.array(data, object)


class Batch(NamedTuple):
    """K elements of Q(zeta_n), each normalized as CyclotomicReal is: the
    rows of num over the positive den, int64 whenever both fit in 62 bits.
    +, - and * by a fixed x normalize their results."""

    n: int
    num: np.ndarray
    den: np.ndarray
    num_bits: int
    den_bits: int

    def take(self, index) -> "Batch":
        return self._replace(num=self.num[index], den=self.den[index])

    def to_conductor(self, m: int) -> "Batch":
        """The rows promoted to Q(zeta_m), n | m."""
        return self if m == self.n else self * CyclotomicReal.from_rational(1, m)

    def __add__(self, other: "Batch") -> "Batch":
        return settle(_combine(self, other, np.add))

    def __sub__(self, other: "Batch") -> "Batch":
        return settle(_combine(self, other, np.subtract))

    def __mul__(self, x: CyclotomicReal) -> "Batch":
        return settle(_product(self, x))

    def rows(self) -> list[tuple[tuple[int, ...], int]]:  # (numerator, denominator)
        return list(zip(map(tuple, self.num.tolist()), self.den.tolist()))

    def values(self) -> list[CyclotomicReal]:
        return [CyclotomicReal(self.n, num, den, _raw=True) for num, den in self.rows()]

    def decimals(self, digits: int) -> list[str]:
        """x.decimal(digits) for each row x, from the first enclosures of all
        rows at once (_enclosures), each distinct enclosure rounded once (equal
        rows, such as the Im of points on one horizontal line, share one); a
        row whose enclosure is too wide, or every row of a batch on Python
        ints, finishes through decimal itself."""
        boxes = _enclosures(self)
        if boxes is None:
            return [x.decimal(digits) for x in self.values()]
        rounded: dict[tuple[int, int, int], "str | None"] = {}
        out = []
        for i, box in enumerate(boxes):
            if box not in rounded:
                rounded[box] = _decimal_text(*box, digits)
            out.append(rounded[box] or self.take([i]).values()[0].decimal(digits))
        return out

    def coefficient_strings(self) -> list[tuple[str, ...]]:
        """x.coefficient_strings() for each row x; each distinct numerator
        over each denominator is written once."""
        texts: dict[int, dict[int, str]] = {}
        out = []
        for row, den in zip(self.num.tolist(), self.den.tolist()):
            known = texts.setdefault(den, {})
            for c in set(row).difference(known):
                known[c] = _ratio_text(c, den)
            out.append(tuple(map(known.__getitem__, row)))
        return out


class Deferred(Batch):
    """Rows of K elements of Q(zeta_n) as a Batch holds them, not normalized:
    the intermediates of a formula on Batches (defer), normalized only in
    the results (settle).  +, - and * by a fixed x run in int64 when the
    bits of their operands bound the result below 2^62, else on Python ints."""

    __slots__ = ()

    def __add__(self, other: Batch) -> "Deferred":
        return _combine(self, other, np.add)

    def __sub__(self, other: Batch) -> "Deferred":
        return _combine(self, other, np.subtract)

    def __mul__(self, x: CyclotomicReal) -> "Deferred":
        return _product(self, x)


def _product(b: Batch, x: CyclotomicReal) -> Deferred:
    """b * x for a fixed x, on lcm(n, x.conductor) as x * y would be."""
    m = math.lcm(b.n, x.conductor)
    x = x.to_conductor(m)
    if x.is_rational and m == b.n:  # such as p = 0 and p = 1: scale the rows
        c = x._num[0]
        fits = max(b.num_bits + c.bit_length(), b.den_bits + x._den.bit_length())
        num, den = _cast(fits <= _INT64_BITS, b.num, b.den)
        return _rows(Deferred, m, num * c, den * x._den)
    matrix, bits = _multiplier(b.n, x._num, m) or (None, _INT64_BITS)
    size = b.num_bits + bits + euler_phi(b.n).bit_length() + 1
    if max(size, b.den_bits + x._den.bit_length()) <= _INT64_BITS:
        num, den = _cast(True, b.num, b.den)
        return _rows(Deferred, m, num @ matrix, den * x._den)
    ys = [CyclotomicReal(b.n, tuple(row), 1, _raw=True) * x for row in b.num.tolist()]
    num = np.array([y._num for y in ys], object).reshape(len(ys), euler_phi(m))
    return _rows(Deferred, m, num, b.den.astype(object) * [y._den for y in ys])


def defer(value):
    """A Batch as Deferred rows; anything else, such as a number, as it is."""
    return Deferred(*value) if type(value) is Batch else value


def settle(value):
    """Deferred rows normalized into a Batch; anything else as it is."""
    return _normalized(value.n, value.num, value.den) if isinstance(value, Deferred) else value


# Enclosure limbs narrower than this make more int64 products than the
# Python-int sums of decimal save.
_MIN_LIMB_BITS = 16


def _enclosures(b: Batch) -> "list[tuple[int, int, int]] | None":
    """The _FIRST_PREC enclosure (lo, hi, den) of each row, as _enclosure_at
    gives it; None for a batch on Python ints.

    Endpoints are fetched for the columns nonzero in some row only.  With P
    and N the positive and negative parts of the rows, (lo, hi) = [P | N] @
    [[a, b], [b, a]] for the endpoint columns a, b; the endpoints are cut
    into signed limbs of w bits, so each limb is one int64 product of 2|J|
    terms below 2^(bits + w + bits(2|J|)) <= 2^62, and the limbs are summed
    on Python ints.
    """
    cols = np.flatnonzero(b.num.any(axis=0))
    width = _INT64_BITS - b.num_bits - (2 * len(cols)).bit_length()
    if b.num.dtype == object or width < _MIN_LIMB_BITS:
        return None
    ends = [_cos_endpoints(b.n, j, _FIRST_PREC) for j in cols.tolist()]
    lo = [a for a, _, _ in ends]
    hi = [c for _, c, _ in ends]
    table = np.array([lo + hi, hi + lo], object).T
    rows = b.num[:, cols]
    sides = np.hstack([np.maximum(rows, 0), np.minimum(rows, 0)])
    magnitude, sign, mask = abs(table), np.sign(table), (1 << width) - 1
    total = np.zeros((len(b.num), 2), object)
    for shift in range(0, _bits(table), width):
        limb = (sign * (magnitude >> shift & mask)).astype(np.int64)
        total += (sides @ limb).astype(object) << shift
    den = b.den.astype(object) << _FIRST_PREC
    return list(zip(total[:, 0].tolist(), total[:, 1].tolist(), den.tolist()))


def _cast(fits: bool, *arrays: np.ndarray) -> list[np.ndarray]:
    return [a.astype(np.int64 if fits else object, copy=False) for a in arrays]


def _normalized(n: int, num: np.ndarray, den: np.ndarray) -> Batch:
    """As _normalize, row by row, for positive den; a zero row ends over 1."""
    g = np.gcd(np.gcd.reduce(num, axis=1), den)
    return _rows(Batch, n, num // g[:, None], den // g)


def _rows(kind, n: int, num: np.ndarray, den: np.ndarray):
    """num over den as a Batch or Deferred, int64 when both fit."""
    bits = _bits(num), _bits(den)
    return kind(n, *_cast(max(bits) <= _INT64_BITS, num, den), *bits)


def stack(values: Sequence[CyclotomicReal], n: int = 1) -> Batch:
    """The values as one batch on the lcm of n and their conductors."""
    n = math.lcm(n, *(v.conductor for v in values))
    num = _array([v.to_conductor(n)._num for v in values]).reshape(len(values), euler_phi(n))
    return _normalized(n, num, _array([v._den for v in values]))


def concat(batches: Sequence[Batch], n: int = 1) -> Batch:
    """The rows of batches in order, on the lcm of n and their conductors."""
    if not batches:
        return stack([], n)
    n = math.lcm(n, *(b.n for b in batches))
    batches = [b.to_conductor(n) for b in batches]
    return _rows(Batch, n, np.concatenate([b.num for b in batches]),
                 np.concatenate([b.den for b in batches]))


def _combine(a: Batch, b: Batch, op) -> Deferred:
    """op(a, b) on the lcm of the conductors, over the lcm of the denominators;
    a one-row operand broadcasts against every row of the other."""
    n = math.lcm(a.n, b.n)
    a, b = defer(a).to_conductor(n), defer(b).to_conductor(n)
    bits = max(a.num_bits + b.den_bits, b.num_bits + a.den_bits, a.den_bits + b.den_bits)
    an, ad, bn, bd = _cast(bits < _INT64_BITS, a.num, a.den, b.num, b.den)
    den = np.lcm(ad, bd)
    num = an * (den // ad)[:, None]
    op(num, bn * (den // bd)[:, None], out=num)
    return _rows(Deferred, n, num, den)


@lru_cache(maxsize=64)  # a 9-slope set's multipliers; one at phi 480 holds 1.8 MB
def _multiplier(n: int, x: tuple[int, ...], m: int) -> "tuple[np.ndarray, int] | None":
    """(matrix, bits), row j being x * zeta_n^j in Q(zeta_m), n | m: each
    x * zeta_m^(e+1) is x * zeta_m^e shifted up one place and reduced by
    _reduce_product.  None unless the matrix fits int64 within 2^62, at
    once when row 0, x itself, does not."""
    if max(map(abs, x), default=0).bit_length() > _INT64_BITS:
        return None
    step, rows, row = m // n, [list(x)], list(x)
    for e in range(1, (euler_phi(n) - 1) * step + 1):
        row = _reduce_product([0] + row, m)
        if e % step == 0:
            rows.append(row)
    matrix = _array(rows)
    bits = _bits(matrix)
    return (matrix, bits) if matrix.dtype == np.int64 and bits <= _INT64_BITS else None


# ---------------------------------------------------------------------------
# evaluation at the roots of Phi_n modulo a split prime


@cache
def units(n: int) -> tuple[int, ...]:
    """The units a mod n with 1 <= a <= n, in increasing order."""
    return tuple(a for a in range(1, n + 1) if math.gcd(a, n) == 1)


@cache
def split_prime(n: int) -> int:
    """The smallest prime q = 1 (mod n) above 2^30, by deterministic
    Miller-Rabin, and below 2^31; Phi_n splits into linear factors mod q."""
    start = (2**30 // n + 1) * n + 1
    return next(q for q in range(start, 2**31, n) if mpmath.libmp.isprime(q))


@cache
def _root_powers(n: int) -> np.ndarray:
    """w^k mod split_prime(n) for k < n, w of exact order n; the roots of
    Phi_n mod q are the w^a for the units a."""
    q = split_prime(n)
    powers = (pow(c, (q - 1) // n, q) for c in range(2, q))
    w = next(w for w in powers if all(pow(w, n // r, q) != 1 for r in _primes(n)))
    out, p = np.empty(n, np.int64), 1
    for k in range(n):
        out[k], p = p, p * w % q
    return out


def evaluate(x: CyclotomicReal, n: int) -> "np.ndarray | None":
    """x at the roots w^a of Phi_n mod q = split_prime(n), a over units(n)
    in order, None when q divides x's denominator: a ring map, so products
    and sums are pointwise.  The coefficients c_j not divisible by q go 32
    at a time against 256 of the roots: one gather from _root_powers makes
    that block of the table w^(aj), at most 8,192 entries, and one product
    with the residues c_j mod q in 16-bit limbs adds the block's terms.
    Residues are below q < 2^31, so each limb's sum of at most 32 products
    stays below 2^52."""
    q = split_prime(n)
    if x._den % q == 0:
        return None
    w, a = _root_powers(n), np.array(units(n), np.int64)
    terms = [(j, r) for j, c in enumerate(x.to_conductor(n)._num) if (r := c % q)]
    j, c = np.array(terms, np.int64).reshape(-1, 2).T
    limbs, acc = np.stack([c & 0xFFFF, c >> 16]), np.zeros(len(a), np.int64)
    for s, t in itertools.product(range(0, len(j), 32), range(0, len(a), 256)):
        lo, hi = limbs[:, s : s + 32] @ w[np.outer(j[s : s + 32], a[t : t + 256]) % n] % q
        acc[t : t + 256] += (lo + (hi << 16)) % q
    return acc % q * pow(x._den, -1, q) % q


# ---------------------------------------------------------------------------
# trigonometric and radical constructors


def cos_of(angle: Angle) -> CyclotomicReal:
    """Exact cos(angle) = (zeta^m + zeta^-m) / 2 as a cyclotomic real."""
    n = angle.conductor
    m = angle.numerator * (n // (2 * angle.denominator))
    return CyclotomicReal._make(n, _power_sum(n, [(m, 1), (-m, 1)]), 2)


def sin_of(angle: Angle) -> CyclotomicReal:
    """Exact sin(angle) = (zeta^(n/4 - m) - zeta^(n/4 + m)) / 2 as a cyclotomic real."""
    n = angle.conductor
    m = angle.numerator * (n // (2 * angle.denominator))
    return CyclotomicReal._make(n, _power_sum(n, [(n // 4 - m, 1), (n // 4 + m, -1)]), 2)


@cache
def _sqrt_prime(p: int) -> CyclotomicReal:
    """The positive square root of a prime, via quadratic Gauss sums."""
    if p == 2:  # zeta_8 + 1/zeta_8 = 2 cos(pi/4)
        return CyclotomicReal._make(8, _power_sum(8, [(1, 1), (-1, 1)]), 1)
    # the Gauss sum, the sum of zeta_p^(x^2) over x mod p, is sqrt(p) if
    # p = 1 mod 4, else i*sqrt(p): take -zeta_4 times it
    n, sign, shift = (p, 1, 0) if p % 4 == 1 else (4 * p, -1, p)
    terms = ((n // p * x * x + shift, sign) for x in range(p))
    return CyclotomicReal._make(n, _power_sum(n, terms), 1)


def sqrt_rational(value: Rational) -> CyclotomicReal:
    """Exact square root of a nonnegative rational."""
    q = Fraction(value)
    if q < 0:
        raise ValueError("square root of a negative rational is not real")
    if q == 0:
        return CyclotomicReal.from_rational(0)
    # sqrt(a/b) = sqrt(a*b)/b = t * sqrt(s)/b, s the squarefree part of a*b
    m = s = q.numerator * q.denominator
    primes = _primes(m)
    for p in primes:
        while s % (p * p) == 0:
            s //= p * p
    start = CyclotomicReal.from_rational(Fraction(math.isqrt(m // s), q.denominator))
    return math.prod((_sqrt_prime(p) for p in primes if s % p == 0), start=start)


def minimal_polynomial(x: CyclotomicReal):
    """Monic minimal polynomial of x over Q.

    Powers of x are fed into a RowSpace, the rational view of one
    Hermite sweep, until the first linear relation appears; least degree
    makes the relation irreducible.
    """
    from .linalg import RowSpace
    from .polynomials import RationalPolynomial

    dimension = euler_phi(x.conductor)
    span = RowSpace(dimension)
    power = CyclotomicReal.from_rational(1, x.conductor)
    while True:
        coords = span.add(power.coefficients())
        if coords is not None:
            return RationalPolynomial([-c for c in coords] + [1])
        power = power * x


def _descend(x: CyclotomicReal, p: int) -> "CyclotomicReal | None":
    """x on conductor m = c/p, p a prime of x's conductor c, or None when x
    lies outside Q(zeta_m).  The trace down to Q(zeta_m) sends zeta_c^j to
    p * zeta_m^(j/p) or 0 when p | m, else to (p - 1 or -1) * zeta_m^(b*j),
    b = p^-1 mod m, as p divides j or not; x lies in Q(zeta_m) exactly when
    the trace over the degree promotes back to x, so both answers certify."""
    c = x.conductor
    m = c // p
    if m % p == 0:
        degree = p
        terms = ((j // p, p * a) for j, a in enumerate(x._num) if a and j % p == 0)
    else:
        degree, b = p - 1, pow(p, -1, m)
        terms = ((b * j, a * (p - 1) if j % p == 0 else -a)
                 for j, a in enumerate(x._num) if a)
    y = CyclotomicReal._make(m, _power_sum(m, terms), x._den * degree)
    return y if y.to_conductor(c) == x else None


def sum_of(terms: Sequence[CyclotomicReal]) -> CyclotomicReal:
    """The sum of terms, each lifted once to the lcm of their conductors by
    one `_power_sum` and normalized once.  The representation on that
    conductor is canonical, so this is the left fold of `+`."""
    n = math.lcm(*(t.conductor for t in terms))
    den = math.lcm(*(t._den for t in terms))
    num = _power_sum(n, (
        (j * (n // t.conductor), c * (den // t._den))
        for t in terms for j, c in enumerate(t._num) if c
    ))
    return CyclotomicReal._make(n, num, den)


def rewrite_in_conductor(x: CyclotomicReal, n: int) -> "CyclotomicReal | None":
    """Rewrite x on the basis of Q(zeta_n) if x lies in that field.

    Returns None when x is provably outside Q(zeta_n).  Inside Q(zeta_c),
    c the conductor of x, the field Q(zeta_n) meets Q(zeta_c) in
    Q(zeta_g) with g = gcd(c, n) (Washington, GTM 83, ch. 2), so x
    descends to g one prime of c/g at a time (_descend), largest first,
    and is then promoted to n.
    """
    g = math.gcd(x.conductor, n)
    while x.conductor != g:
        x = _descend(x, _primes(x.conductor // g)[-1])
        if x is None:
            return None
    return x.to_conductor(n)
