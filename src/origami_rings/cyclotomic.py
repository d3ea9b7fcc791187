"""Exact arithmetic for real elements of cyclotomic fields.

A CyclotomicReal is a real algebraic number written on the power basis
1, zeta, ..., zeta^(phi(n)-1) of Q(zeta_n), zeta_n = exp(2*pi*i/n),
as an integer coefficient vector over a common positive denominator.
The representation is canonical (reduced modulo the n-th cyclotomic
polynomial, gcd-normalized), so equality and zero tests are exact
vector comparisons after conductor promotion.

The constructors cover everything the rest of the package needs:
rationals, sin and cos of rational multiples of pi, and square roots
of nonnegative rationals (via quadratic Gauss sums).  Signs are decided
exactly: zero is a representation check, and nonzero signs fall out of
certified interval evaluation at increasing precision, which must
terminate because the number is not zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Iterable, Sequence, Union

import mpmath
from mpmath import iv

from .angles import Angle

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# integer polynomial helpers (lowest coefficient first)


def _poly_divexact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Exact division of integer polynomials; den must be monic here."""
    num_l = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num_l[shift + len(den) - 1]
        out[shift] = c
        if c:
            for i, d in enumerate(den):
                num_l[shift + i] -= c * d
    if any(num_l):
        raise ArithmeticError("inexact polynomial division")
    return tuple(out)


@cache
def _divisors(n: int) -> tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, lowest first."""
    if n == 1:
        return (-1, 1)
    # (x^n - 1) / product of cyclotomic polynomials of proper divisors
    poly = tuple([-1] + [0] * (n - 1) + [1])
    for d in _divisors(n):
        if d < n:
            poly = _poly_divexact(poly, cyclotomic_polynomial(d))
    return poly


@cache
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@cache
def _moebius(n: int) -> int:
    if n == 1:
        return 1
    mu, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if m > 1 else mu


@cache
def _zeta_power_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Basis vectors of zeta_n^j, enough rows for products and promotion."""
    phi = euler_phi(n)
    top = tuple(-c for c in cyclotomic_polynomial(n)[:phi])  # zeta^phi
    rows = []
    row = tuple([1] + [0] * (phi - 1))
    for _ in range(max(n, 2 * phi - 1)):
        rows.append(row)
        shifted = (0,) + row[: phi - 1]
        lead = row[phi - 1]
        row = tuple(s + lead * t for s, t in zip(shifted, top)) if lead else shifted
    return tuple(rows)


@cache
def _trace_row(n: int) -> tuple[int, ...]:
    """Traces of the basis powers zeta_n^j down to Q, j = 0 .. phi(n)-1."""
    phi = euler_phi(n)
    out = []
    for j in range(phi):
        g = math.gcd(n, j) if j else n
        m = n // g
        out.append(_moebius(m) * phi // euler_phi(m))
    return tuple(out)


def _reduce_product(raw: list[int], n: int) -> list[int]:
    """Reduce a convolution (length up to 2*phi-1) modulo Phi_n."""
    phi = euler_phi(n)
    rows = _zeta_power_rows(n)
    out = raw[:phi] + [0] * (phi - len(raw))
    for j in range(phi, len(raw)):
        c = raw[j]
        if c:
            row = rows[j]
            for i in range(phi):
                out[i] += c * row[i]
    return out


def _normalize(num: Iterable[int], den: int) -> tuple[tuple[int, ...], int]:
    num = tuple(num)
    if den < 0:
        num, den = tuple(-c for c in num), -den
    g = den
    for c in num:
        g = math.gcd(g, c)
        if g == 1:
            break
    if g > 1:
        num = tuple(c // g for c in num)
        den //= g
    if all(c == 0 for c in num):
        den = 1
    return num, den


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

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def __str__(self) -> str:
        return f"[{float(self.lo)!r}, {float(self.hi)!r}]"


def _raw_to_fraction(raw) -> Fraction:
    return Fraction(*mpmath.libmp.to_rational(raw))


@lru_cache(maxsize=None)
def _cos_enclosure(n: int, j: int, prec: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of cos(2*pi*j/n) at the given binary precision."""
    old = iv.prec
    iv.prec = prec
    try:
        x = iv.cos(iv.pi * (iv.mpf(2 * j) / iv.mpf(n)))
    finally:
        iv.prec = old
    lo_raw, hi_raw = x._mpi_
    return _raw_to_fraction(lo_raw), _raw_to_fraction(hi_raw)


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
        """Build from basis coefficients; rejects non-real elements."""
        phi = euler_phi(conductor)
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) > phi:
            raise ValueError(f"expected at most {phi} coefficients, got {len(fracs)}")
        fracs += [Fraction(0)] * (phi - len(fracs))
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        num = [int(f * den) for f in fracs]
        x = cls._make(conductor, num, den)
        if x._conjugate_vector() != x._num:
            raise ValueError("coefficients describe a non-real element")
        return x

    # -- representation -----------------------------------------------------

    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients over the power basis of Q(zeta_conductor)."""
        return tuple(Fraction(c, self._den) for c in self._num)

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

    def _conjugate_vector(self) -> tuple[int, ...]:
        """Numerator vector of the complex conjugate (zeta -> zeta^(n-1))."""
        n = self.conductor
        rows = _zeta_power_rows(n)
        phi = euler_phi(n)
        out = [0] * phi
        for j, c in enumerate(self._num):
            if c:
                row = rows[(n - j) % n]
                for i in range(phi):
                    out[i] += c * row[i]
        return tuple(out)

    def to_conductor(self, n: int) -> "CyclotomicReal":
        """Rewrite on the power basis of Q(zeta_n); n must be a multiple."""
        if n == self.conductor:
            return self
        if n % self.conductor:
            raise ValueError(f"{n} is not a multiple of conductor {self.conductor}")
        rows = _zeta_power_rows(n)
        step = n // self.conductor
        phi = euler_phi(n)
        out = [0] * phi
        for j, c in enumerate(self._num):
            if c:
                row = rows[j * step]
                for i in range(phi):
                    out[i] += c * row[i]
        return CyclotomicReal._make(n, out, self._den)

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
        if o.is_rational and o.conductor == 1:
            return CyclotomicReal._make(
                self.conductor,
                (o._num[0] * c for c in self._num),
                self._den * o._den,
            )
        a, b, n = self._common(o)
        raw = [0] * (len(a._num) + len(b._num) - 1)
        for i, x in enumerate(a._num):
            if x:
                for j, y in enumerate(b._num):
                    if y:
                        raw[i + j] += x * y
        return CyclotomicReal._make(n, _reduce_product(raw, n), a._den * b._den)

    __rmul__ = __mul__

    def inv(self) -> "CyclotomicReal":
        """Exact multiplicative inverse."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational:
            q = 1 / self.as_rational()
            out = CyclotomicReal.from_rational(q, 1)
            return out.to_conductor(self.conductor)

        # Extended Euclid in Q[X]: track s with s*f = r (mod Phi_n).  The
        # modulus is irreducible, so the gcd is a nonzero constant and
        # f^(-1) = s/gcd evaluated at zeta.
        def trim(p: list[Fraction]) -> list[Fraction]:
            while p and p[-1] == 0:
                p.pop()
            return p

        def divmod_poly(a: list[Fraction], b: list[Fraction]):
            q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
            rem = a[:]
            for shift in range(len(a) - len(b), -1, -1):
                c = rem[shift + len(b) - 1] / b[-1]
                q[shift] = c
                if c:
                    for i, d in enumerate(b):
                        rem[shift + i] -= c * d
            return q, trim(rem)

        f = trim([Fraction(c, self._den) for c in self._num])
        phi_n = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r0, r1 = f, phi_n
        s0, s1 = [Fraction(1)], []
        while r1:
            q, rem = divmod_poly(r0, r1)
            s_new = s0[:] + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        if sc:
                            s_new[i + j] -= qc * sc
            r0, r1 = r1, rem
            s0, s1 = s1, trim(s_new)
        if len(r0) != 1:
            raise ArithmeticError("element shares a factor with the modulus")
        inv_coeffs = [c / r0[0] for c in s0]
        phi = euler_phi(self.conductor)
        inv_coeffs += [Fraction(0)] * (phi - len(inv_coeffs))
        den = math.lcm(*(c.denominator for c in inv_coeffs[:phi]))
        num = [int(c * den) for c in inv_coeffs[:phi]]
        return CyclotomicReal._make(self.conductor, num, den)

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
        # conductor-independent invariants: normalized traces of x and x^2
        phi = euler_phi(self.conductor)
        tr = _trace_row(self.conductor)
        t1 = Fraction(sum(c * t for c, t in zip(self._num, tr)), self._den * phi)
        sq = self * self
        tr2 = _trace_row(sq.conductor)
        phi2 = euler_phi(sq.conductor)
        t2 = Fraction(sum(c * t for c, t in zip(sq._num, tr2)), sq._den * phi2)
        return hash((t1, t2))

    # -- numeric evaluation --------------------------------------------------

    def _enclosure_at(self, prec: int) -> Interval:
        lo = hi = Fraction(0)
        n = self.conductor
        for j, c in enumerate(self._num):
            if c:
                clo, chi = _cos_enclosure(n, j, prec)
                if c > 0:
                    lo, hi = lo + c * clo, hi + c * chi
                else:
                    lo, hi = lo + c * chi, hi + c * clo
        return Interval(lo / self._den, hi / self._den)

    def _refine(self, done) -> Interval:
        """Enclosures at doubling precision until done(box) holds."""
        prec = 64
        while True:
            box = self._enclosure_at(prec)
            if done(box):
                return box
            prec *= 2

    def interval(self, max_width: Rational = Fraction(1, 10**15)) -> Interval:
        """A certified enclosure no wider than max_width."""
        max_width = Fraction(max_width)
        if max_width <= 0:
            raise ValueError("max_width must be positive")
        return self._refine(lambda box: box.width <= max_width)

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1."""
        if self.is_zero:
            return 0
        if self.is_rational:
            return -1 if self._num[0] < 0 else 1
        box = self._refine(lambda box: not box.contains_zero())
        return 1 if box.lo > 0 else -1

    def __float__(self) -> float:
        return float(self.interval(Fraction(1, 10**17)).midpoint)

    def decimal(self, digits: int = 12) -> str:
        """Decimal string certified to the requested number of digits."""
        if digits < 0:
            raise ValueError("digits must be nonnegative")
        box = self.interval(Fraction(1, 10 ** (digits + 2)))
        mid = box.midpoint
        sign = "-" if mid < 0 else ""
        mid = abs(mid)
        scaled = round(mid * 10**digits)
        text = str(scaled).rjust(digits + 1, "0")
        return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"

    # -- misc ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.as_rational())
        return f"<{float(self):.12g} in Q(zeta_{self.conductor})>"

    def __repr__(self) -> str:
        return (
            f"CyclotomicReal(conductor={self.conductor}, "
            f"coeffs={[str(c) for c in self.coefficients()]})"
        )

    def __bool__(self) -> bool:
        return not self.is_zero


# ---------------------------------------------------------------------------
# trigonometric and radical constructors


def cos_of(angle: Angle) -> CyclotomicReal:
    """Exact cos(angle) as a cyclotomic real."""
    n = angle.conductor
    rows = _zeta_power_rows(n)
    m = (angle.numerator * (n // (2 * angle.denominator))) % n
    phi = euler_phi(n)
    plus = rows[m]
    minus = rows[(n - m) % n]
    num = [plus[i] + minus[i] for i in range(phi)]
    return CyclotomicReal._make(n, num, 2)


def sin_of(angle: Angle) -> CyclotomicReal:
    """Exact sin(angle) as a cyclotomic real."""
    n = angle.conductor
    rows = _zeta_power_rows(n)
    quarter = n // 4
    m = (angle.numerator * (n // (2 * angle.denominator))) % n
    phi = euler_phi(n)
    plus = rows[(n - m + quarter) % n]
    minus = rows[(m + quarter) % n]
    num = [plus[i] - minus[i] for i in range(phi)]
    return CyclotomicReal._make(n, num, 2)


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@cache
def _sqrt_prime(p: int) -> CyclotomicReal:
    """The positive square root of a prime, via quadratic Gauss sums."""
    if p == 2:
        rows = _zeta_power_rows(8)
        num = [a + b for a, b in zip(rows[1], rows[7])]
        return CyclotomicReal._make(8, num, 1)
    if p % 4 == 1:
        phi = euler_phi(p)
        out = [0] * phi
        rows = _zeta_power_rows(p)
        for a in range(1, p):
            s = _legendre(a, p)
            row = rows[a]
            for i in range(phi):
                out[i] += s * row[i]
        return CyclotomicReal._make(p, out, 1)
    # p = 3 mod 4: the Gauss sum equals i*sqrt(p); divide by i inside Q(zeta_4p)
    n = 4 * p
    phi = euler_phi(n)
    rows = _zeta_power_rows(n)
    out = [0] * phi
    for a in range(1, p):
        s = _legendre(a, p)
        row = rows[(4 * a + p) % n]  # zeta_p^a * zeta_4^(-1)... folded below
        for i in range(phi):
            out[i] -= s * row[i]
    return CyclotomicReal._make(n, out, 1)


def sqrt_rational(value: Rational) -> CyclotomicReal:
    """Exact square root of a nonnegative rational."""
    q = Fraction(value)
    if q < 0:
        raise ValueError("square root of a negative rational is not real")
    if q == 0:
        return CyclotomicReal.from_rational(0)
    # sqrt(a/b) = sqrt(a*b)/b
    m = q.numerator * q.denominator
    outer, inner = 1, 1
    d = 2
    while d * d <= m:
        while m % (d * d) == 0:
            outer *= d
            m //= d * d
        if m % d == 0:
            inner *= d
            m //= d
        d += 1
    inner *= m
    result = CyclotomicReal.from_rational(Fraction(outer, q.denominator))
    f = 2
    rem = inner
    while rem > 1:
        while rem % f:
            f += 1
        result = result * _sqrt_prime(f)
        rem //= f
    return result


def minimal_polynomial(x: CyclotomicReal):
    """Monic minimal polynomial of x over Q.

    Powers of x are fed into a rational row space until the first linear
    relation appears; least degree makes the relation irreducible.
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


def rewrite_in_conductor(x: CyclotomicReal, n: int) -> "CyclotomicReal | None":
    """Rewrite x on the basis of Q(zeta_n) if x lies in that field.

    Returns None when x is provably outside Q(zeta_n).  Inside Q(zeta_c),
    c the conductor of x, the field Q(zeta_n) meets Q(zeta_c) in
    Q(zeta_g) with g = gcd(c, n) (Washington, GTM 83, ch. 2), so a
    rational solve against the basis of Q(zeta_g) promoted to c decides
    membership without building the compositum.
    """
    from .linalg import RowSpace

    c = x.conductor
    if c == n:
        return x
    if n % c == 0:
        return x.to_conductor(n)
    g = math.gcd(c, n)
    span = RowSpace(euler_phi(c))
    for j in range(euler_phi(g)):
        basis_vec = [0] * euler_phi(g)
        basis_vec[j] = 1
        span.add(CyclotomicReal._make(g, basis_vec, 1).to_conductor(c).coefficients())
    coords = span.coordinates(x.coefficients())
    if coords is None:
        return None
    den = math.lcm(*(q.denominator for q in coords))
    small = CyclotomicReal._make(g, [int(q * den) for q in coords], den)
    return small.to_conductor(n)
