from fractions import Fraction

import pytest

from origami_rings.angles import Angle
from origami_rings.cyclotomic import CyclotomicReal, cos_of, sin_of, sqrt_rational
from origami_rings.geometry import (
    DegenerateFrameError,
    Frame,
    Line,
    ParallelLinesError,
    PlanePoint,
    ZeroSlopeError,
    from_coords,
    from_frame,
    intersect,
    project,
    to_frame,
)

A3 = Angle(1, 3)
A23 = Angle(2, 3)
A4 = Angle(1, 4)
A2 = Angle(1, 2)


def frame_triangle() -> Frame:
    return Frame(A23, A3)


def test_frame_rejects_degenerate_pairs():
    with pytest.raises(DegenerateFrameError):
        Frame(A3, A3)
    with pytest.raises(DegenerateFrameError):
        Frame(Angle.zero(), A3)


def test_p_value_normalization():
    f = frame_triangle()
    assert f.p_value(f.alpha).is_zero
    assert f.p_value(f.beta) == 1
    with pytest.raises(ZeroSlopeError):
        f.p_value(Angle.zero())


def test_unit_parts_closed_form():
    # e = (-cos a sin b / sin(a-b), -sin a sin b / sin(a-b))
    x, y = Frame(A3, A23).unit_parts()
    assert x == Fraction(1, 2)
    assert y == sqrt_rational(3) / 2
    x, y = Frame(A4, A2).unit_parts()
    assert x == 1
    assert y == 1
    # canonical descending frame of the triangle set mirrors below the axis
    x, y = frame_triangle().unit_parts()
    assert x == Fraction(1, 2)
    assert y == -(sqrt_rational(3) / 2)


def test_point_realness():
    f = frame_triangle()
    assert PlanePoint(2, 2, f).is_real
    assert PlanePoint(2, 2, f).as_real() == 2
    assert not f.unit().is_real
    with pytest.raises(ValueError):
        f.unit().as_real()


def test_cartesian_round_trip():
    f = frame_triangle()
    z = PlanePoint(Fraction(3, 2), Fraction(-1, 3), f)
    re, im = z.to_cartesian()
    back = PlanePoint.from_cartesian(re, im, f)
    assert back == z
    assert back.r == z.r and back.s == z.s


def test_projection_recovers_coordinates():
    f = frame_triangle()
    z = PlanePoint(Fraction(5, 7), Fraction(-2), f)
    assert project(z, f.alpha) == z.r
    assert project(z, f.beta) == z.s
    # projecting a real point along any direction returns the point
    w = PlanePoint(Fraction(4, 3), Fraction(4, 3), f)
    assert project(w, A4) == Fraction(4, 3)


def test_projection_is_linear():
    f = frame_triangle()
    z = PlanePoint(1, Fraction(1, 2), f)
    w = PlanePoint(Fraction(-2, 3), 4, f)
    for gamma in (A3, A4, A2, Angle(1, 6)):
        left = project(z + w, gamma)
        assert left == project(z, gamma) + project(w, gamma)
        assert project(z * Fraction(7, 5), gamma) == project(z, gamma) * Fraction(7, 5)


def test_from_coords():
    z = from_coords(0, 1, A23, A3)
    assert z == frame_triangle().unit()


def test_frame_change_round_trip():
    f = frame_triangle()
    z = PlanePoint(Fraction(2, 5), Fraction(-3, 7), f)
    g = to_frame(z, A4, A2)
    assert g.frame.alpha == A4 and g.frame.beta == A2
    assert g == z  # same plane point, new coordinates
    back = to_frame(g, f.alpha, f.beta)
    assert back.r == z.r and back.s == z.s


def test_from_frame_inverts_to_frame():
    f = frame_triangle()
    z = PlanePoint(Fraction(1, 3), Fraction(5, 2), f)
    w = to_frame(z, A4, A2)
    # feeding the (pi/4, pi/2)-coordinates back recovers z exactly
    back = from_frame(w.r, w.s, A4, A2, f)
    assert back.r == z.r and back.s == z.s


def test_line_contains_and_invariant():
    f = frame_triangle()
    l = Line(f.zero(), A3)
    assert l.contains(f.zero())
    assert not l.contains(f.one())
    # horizontal line through a point keeps s - r fixed
    h = Line(f.unit(), Angle.zero())
    assert h.contains(f.unit())


def test_intersection_oracle():
    # slope pi/3 through 0 and slope 2pi/3 through 1 meet at
    # (1/2, sqrt(3)/2), the equilateral apex
    f = frame_triangle()
    z = intersect(Line(f.zero(), A3), Line(f.one(), A23))
    re, im = z.to_cartesian()
    assert re == Fraction(1, 2)
    assert im == sqrt_rational(3) / 2


def test_intersection_with_horizontal():
    f = frame_triangle()
    apex = intersect(Line(f.zero(), A3), Line(f.one(), A23))
    # horizontal through the apex meets slope pi/2 through 0 at (0, sqrt3/2)
    z = intersect(Line(apex, Angle.zero()), Line(f.zero(), A2))
    re, im = z.to_cartesian()
    assert re.is_zero
    assert im == sqrt_rational(3) / 2


def test_intersection_with_horizontal_second():
    f = frame_triangle()
    apex = intersect(Line(f.zero(), A3), Line(f.one(), A23))
    horizontal, vertical = Line(apex, Angle.zero()), Line(f.zero(), A2)
    z = intersect(vertical, horizontal)
    w = intersect(horizontal, vertical)
    assert z.frame == w.frame
    assert (z.r, z.s) == (w.r, w.s)


def test_parallel_lines_rejected():
    f = frame_triangle()
    with pytest.raises(ParallelLinesError):
        intersect(Line(f.zero(), A3), Line(f.one(), A3))


def test_point_equality_across_frames():
    f = frame_triangle()
    g = Frame(A2, A4)
    z = PlanePoint(Fraction(1, 2), Fraction(1, 2), f)
    w = to_frame(z, g.alpha, g.beta)
    assert z == w
    assert hash(z) == hash(w)
    assert len({z, w}) == 1


def test_point_algebra():
    f = frame_triangle()
    z = PlanePoint(1, 2, f)
    w = PlanePoint(Fraction(1, 2), -1, f)
    assert (z + w).r == Fraction(3, 2)
    assert (z - w).s == 3
    assert (-z).r == -1
    assert (z * 2).s == 4
