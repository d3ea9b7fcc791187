"""Plane geometry over a distinguished pair of directions.

A Frame fixes two distinct nonzero directions alpha and beta.  Every
point of the plane then has coordinates (r, s): r is where the line of
direction alpha through the point meets the real axis, s the same for
beta.  Both coordinates are exact cyclotomic reals, and the point is
real exactly when r = s.

Projections along other directions, changes of frame and intersections
of direction lines are all rational expressions in the projection
constants p(gamma), so everything stays inside exact arithmetic.  A
change of frame is two projections, along the new frame's directions
(reframe); it, line_value, meet and cartesian take numbers or Batches.
Each formula is written once for both: on Batches its steps run on
unnormalized rows (cyclotomic.defer), and each returned batch is
normalized once (settle), so meet and cartesian normalize two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .angles import Angle, angle_difference
from .cyclotomic import CyclotomicReal, _power_sum, cos_of, defer, settle, sin_of

Scalar = Union[int, Fraction, CyclotomicReal]


class ZeroSlopeError(ValueError):
    """Raised when a projection or constant needs a nonzero direction."""


class DegenerateFrameError(ValueError):
    """Raised when the two frame directions coincide or one is zero."""


class ParallelLinesError(ValueError):
    """Raised when intersecting lines of equal direction."""


def signed_sin(a: Angle, b: Angle) -> CyclotomicReal:
    """Exact sin(a - b) for directions a, b in [0, pi)."""
    sgn, diff = angle_difference(a, b)
    value = sin_of(diff)
    return value if sgn > 0 else -value


@lru_cache(maxsize=None)
def _inverse_sin(angle: Angle) -> CyclotomicReal:
    """Exact 1/sin(angle), made once per direction at its own conductor n.

    For angle = pi*k/d, sin(angle) = zeta^(n/4 - m) * (1 - w) / 2 with
    m = k*n/(2d) as in sin_of and w = zeta^(2m) of order d, and 1/(1 - w)
    = -(1/d) * sum_{j<d} j*w^j (Washington, GTM 83, ch. 2), so 1/sin is
    one power sum over d.
    """
    if angle.is_zero:
        raise ZeroDivisionError("1/sin(0)")
    n, d = angle.conductor, angle.denominator
    m = angle.numerator * (n // (2 * d))
    terms = [(m - n // 4 + 2 * m * j, -2 * j) for j in range(d)]
    return CyclotomicReal._make(n, _power_sum(n, terms), d)


def inverse_signed_sin(a: Angle, b: Angle) -> CyclotomicReal:
    """Exact 1/sin(a - b) for distinct directions a, b in [0, pi): the
    cached inverse of sin|a - b|, shared by every pair with that gap."""
    sgn, diff = angle_difference(a, b)
    value = _inverse_sin(diff)
    return value if sgn > 0 else -value


@dataclass(frozen=True)
class Frame:
    """An ordered pair of distinct nonzero directions (alpha, beta)."""

    alpha: Angle
    beta: Angle

    def __post_init__(self):
        if self.alpha.is_zero or self.beta.is_zero:
            raise DegenerateFrameError("frame directions must be nonzero")
        if self.alpha == self.beta:
            raise DegenerateFrameError("frame directions must be distinct")

    def p_value(self, gamma: Angle) -> CyclotomicReal:
        """The projection constant p(gamma) of this frame.

        p(alpha) = 0 and p(beta) = 1; in general
        p(gamma) = sin(alpha-gamma)*sin(beta) / (sin(alpha-beta)*sin(gamma)).
        """
        return _p_value(self, gamma)

    def unit_parts(self) -> tuple[CyclotomicReal, CyclotomicReal]:
        """Cartesian parts (Re, Im) of the point with coordinates (0, 1)."""
        return _unit_parts(self)

    def zero(self) -> "PlanePoint":
        return PlanePoint(0, 0, self)

    def one(self) -> "PlanePoint":
        return PlanePoint(1, 1, self)

    def unit(self) -> "PlanePoint":
        """The distinguished unit: coordinates (0, 1)."""
        return PlanePoint(0, 1, self)

    def __str__(self) -> str:
        return f"({self.alpha}, {self.beta})"


@lru_cache(maxsize=64)
def _p_value(frame: Frame, gamma: Angle) -> CyclotomicReal:
    if gamma.is_zero:
        raise ZeroSlopeError("p is undefined for the horizontal direction")
    if gamma == frame.alpha:
        return CyclotomicReal.from_rational(0)
    if gamma == frame.beta:
        return CyclotomicReal.from_rational(1)
    numerator = signed_sin(frame.alpha, gamma) * sin_of(frame.beta)
    return numerator * inverse_signed_sin(frame.alpha, frame.beta) * _inverse_sin(gamma)


@lru_cache(maxsize=64)
def _unit_parts(frame: Frame) -> tuple[CyclotomicReal, CyclotomicReal]:
    scale = sin_of(frame.beta) * inverse_signed_sin(frame.alpha, frame.beta)
    return (-cos_of(frame.alpha) * scale, -sin_of(frame.alpha) * scale)


@lru_cache(maxsize=64)
def _inverse_unit_im(frame: Frame) -> CyclotomicReal:
    """1/Im of the unit point, -sin(alpha-beta) / (sin(alpha)*sin(beta))."""
    gap = -signed_sin(frame.alpha, frame.beta)
    return gap * _inverse_sin(frame.alpha) * _inverse_sin(frame.beta)


@lru_cache(maxsize=64)
def _inverse_p_gap(frame: Frame, gamma: Angle, delta: Angle) -> CyclotomicReal:
    return (_p_value(frame, gamma) - _p_value(frame, delta)).inv()


def _as_cyclotomic(value: Scalar) -> CyclotomicReal:
    if isinstance(value, CyclotomicReal):
        return value
    return CyclotomicReal.from_rational(value)


class PlanePoint:
    """A plane point written in the coordinates of a frame."""

    __slots__ = ("r", "s", "frame")

    def __init__(self, r: Scalar, s: Scalar, frame: Frame):
        self.r = _as_cyclotomic(r)
        self.s = _as_cyclotomic(s)
        self.frame = frame

    @property
    def is_real(self) -> bool:
        return self.r == self.s

    def as_real(self) -> CyclotomicReal:
        if not self.is_real:
            raise ValueError("point is not on the real axis")
        return self.r

    def to_cartesian(self) -> tuple[CyclotomicReal, CyclotomicReal]:
        """Exact Cartesian parts (Re, Im)."""
        return cartesian(self.r, self.s, self.frame)

    @classmethod
    def from_cartesian(
        cls, re: Scalar, im: Scalar, frame: Frame
    ) -> "PlanePoint":
        gap = _as_cyclotomic(im) * _inverse_unit_im(frame)
        r = _as_cyclotomic(re) - gap * frame.unit_parts()[0]
        return cls(r, r + gap, frame)

    def in_frame(self, frame: Frame) -> "PlanePoint":
        """The same plane point rewritten in another frame (reframe)."""
        if frame == self.frame:
            return self
        return PlanePoint(*reframe(self.r, self.s, self.frame, frame), frame)

    def __add__(self, other):
        if not isinstance(other, PlanePoint):
            return NotImplemented
        o = other.in_frame(self.frame)
        return PlanePoint(self.r + o.r, self.s + o.s, self.frame)

    def __sub__(self, other):
        if not isinstance(other, PlanePoint):
            return NotImplemented
        o = other.in_frame(self.frame)
        return PlanePoint(self.r - o.r, self.s - o.s, self.frame)

    def __neg__(self):
        return PlanePoint(-self.r, -self.s, self.frame)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction, CyclotomicReal)):
            c = _as_cyclotomic(scalar)
            return PlanePoint(self.r * c, self.s * c, self.frame)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PlanePoint):
            return NotImplemented
        if other.frame == self.frame:
            return self.r == other.r and self.s == other.s
        return self.to_cartesian() == other.to_cartesian()

    def __hash__(self):
        return hash(self.to_cartesian())

    def __str__(self) -> str:
        return f"[[{self.r}, {self.s}]]"

    def __repr__(self) -> str:
        return f"PlanePoint({self.r!r}, {self.s!r}, frame={self.frame})"


def cartesian(r, s, frame: Frame):
    """Cartesian parts (Re, Im) of the point (r, s) of the frame; r and s are
    numbers, or Batches on a conductor that the unit parts' conductors divide."""
    unit_re, unit_im = frame.unit_parts()
    r, s = defer(r), defer(s)
    gap = s - r
    return settle(r + gap * unit_re), settle(gap * unit_im)


def line_value(r, s, p):
    """The invariant of the line of p-value p through the point (r, s), numbers
    or Batches: its projection, or s - r (the height) for a horizontal p None."""
    if p is None:
        return s - r
    r, s = defer(r), defer(s)
    return settle(r + (s - r) * p)


def reframe(r, s, old: Frame, new: Frame):
    """The coordinates in frame new of the point (r, s) of frame old, numbers
    or Batches: its projections along new's two directions, so the lines of
    those slopes through it cross the real axis there (line_value)."""
    if new == old:
        return r, s
    return line_value(r, s, old.p_value(new.alpha)), line_value(r, s, old.p_value(new.beta))


def project(point: PlanePoint, gamma: Angle) -> CyclotomicReal:
    """Projection of the point onto the real axis along direction gamma.

    For gamma in the frame this recovers the coordinates themselves:
    the alpha-projection is r, the beta-projection is s.
    """
    if gamma.is_zero:
        raise ZeroSlopeError("projection along the horizontal direction")
    return line_value(point.r, point.s, point.frame.p_value(gamma))


def from_coords(r: Scalar, s: Scalar, alpha: Angle, beta: Angle) -> PlanePoint:
    """The point with coordinates (r, s) in the frame (alpha, beta)."""
    return PlanePoint(r, s, Frame(alpha, beta))


def to_frame(point: PlanePoint, gamma: Angle, delta: Angle) -> PlanePoint:
    """Rewrite the point in the frame (gamma, delta), whose directions must
    be nonzero and distinct."""
    return point.in_frame(Frame(gamma, delta))


def from_frame(
    r: Scalar, s: Scalar, gamma: Angle, delta: Angle, frame: Frame
) -> PlanePoint:
    """The point whose (gamma, delta)-coordinates are (r, s), in frame:
    to_frame's inverse."""
    return PlanePoint(r, s, Frame(gamma, delta)).in_frame(frame)


class Line:
    """The line through a point in a direction from [0, pi)."""

    __slots__ = ("through", "slope")

    def __init__(self, through: PlanePoint, slope: Angle):
        self.through = through
        self.slope = slope

    def invariant(self) -> CyclotomicReal:
        """The value shared by all points of the line (line_value)."""
        point, slope = self.through, self.slope
        p = None if slope.is_zero else point.frame.p_value(slope)
        return line_value(point.r, point.s, p)

    def contains(self, point: PlanePoint) -> bool:
        other = Line(point.in_frame(self.through.frame), self.slope)
        return self.invariant() == other.invariant()

    def _key(self) -> tuple:
        """The slope and an invariant that no frame changes: the projection,
        or for a horizontal line its height Im, where s - r is not."""
        if self.slope.is_zero:
            return self.slope, self.through.to_cartesian()[1]
        return self.slope, self.invariant()

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Line(through={self.through!r}, slope={self.slope})"


def meet(v1, v2, p1, p2, gap_inv):
    """Coordinates (r, s) where lines of directions gamma != delta meet.

    v1, v2 are the line invariants, p1 = p(gamma), p2 = p(delta) and
    gap_inv = 1/(p1 - p2); a horizontal first line passes None for both.  v1
    and v2 are numbers or Batches of one conductor (a one-row v1 meets each row).
    """
    v1, v2 = defer(v1), defer(v2)
    if p1 is None:
        r = settle(v2 - v1 * p2)
        return r, settle(r + v1)
    gap = (v1 - v2) * gap_inv
    r = settle(v1 - gap * p1)
    return r, settle(r + gap)


def intersect(first: Line, second: Line) -> PlanePoint:
    """The unique common point of two lines of distinct directions.

    The result is written in the frame of the first line's base point;
    equal directions raise ParallelLinesError (coincident lines do not
    have a unique intersection either).
    """
    if first.slope == second.slope:
        raise ParallelLinesError(
            f"lines of equal direction {first.slope} do not meet in one point"
        )
    frame = first.through.frame
    if second.slope.is_zero:
        first, second = second, first
    gamma, delta = first.slope, second.slope
    v1 = Line(first.through.in_frame(frame), gamma).invariant()
    v2 = Line(second.through.in_frame(frame), delta).invariant()
    p1 = gap_inv = None
    if not gamma.is_zero:
        p1, gap_inv = frame.p_value(gamma), _inverse_p_gap(frame, gamma, delta)
    return PlanePoint(*meet(v1, v2, p1, frame.p_value(delta), gap_inv), frame)
