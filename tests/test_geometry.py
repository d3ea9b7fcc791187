import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import angle_pool
from origami_rings import cyclotomic, geometry, ring_analysis
from origami_rings.angles import Angle, angle_difference
from origami_rings.cli import main
from origami_rings.construction import generate
from origami_rings.cyclotomic import CyclotomicReal, cos_of, sin_of, sqrt_rational, stack
from origami_rings.geometry import (
    DegenerateFrameError,
    Frame,
    Line,
    ParallelLinesError,
    PlanePoint,
    ZeroSlopeError,
    cartesian,
    from_coords,
    from_frame,
    intersect,
    line_value,
    meet,
    project,
    reframe,
    signed_sin,
    to_frame,
)
from origami_rings.ring_analysis import ratio_elements, trace_element
from origami_rings.slopes import SlopeSet

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
    with pytest.raises(ZeroSlopeError):
        project(z, Angle.zero())


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


def _reframe_reference(point, frame):
    """The former change of frame: the point's Cartesian parts written back
    in frame."""
    return PlanePoint.from_cartesian(*point.to_cartesian(), frame)


@pytest.mark.parametrize("slopes", ["0,pi/5,pi/4,pi/3", "0,pi/7,pi/3,pi/2,2pi/3"])
def test_reframe_matches_the_cartesian_route(slopes):
    # every ordered pair of frames of the set, on numbers and on Batches:
    # generated points on the working conductor, and rational points, whose
    # batch lies on conductor 1 while the p-values do not
    u = SlopeSet(slopes.split(","))
    frames = [Frame(a, b) for a, b in itertools.permutations(u.nonzero_slopes, 2)]
    sample = random.Random(29).sample(generate(u, 2)[-1].points, 4)
    for old in frames:
        groups = ([_reframe_reference(pt, old) for pt in sample],
                  [PlanePoint(Fraction(2, 5), Fraction(-3, 7), old), PlanePoint(1, 3, old)])
        assert {v.conductor for pt in groups[1] for v in (pt.r, pt.s)} == {1}
        for new in frames:
            for group in groups:
                want = [_reframe_reference(pt, new) for pt in group]
                for pt, w in zip(group, want):
                    assert reframe(pt.r, pt.s, old, new) == (w.r, w.s)
                    moved = to_frame(pt, new.alpha, new.beta)
                    assert moved.frame == new and (moved.r, moved.s) == (w.r, w.s)
                    back = from_frame(moved.r, moved.s, new.alpha, new.beta, old)
                    assert back.frame == old and (back.r, back.s) == (pt.r, pt.s)
                r, s = reframe(stack([pt.r for pt in group]), stack([pt.s for pt in group]),
                               old, new)
                assert r.values() == [w.r for w in want] and s.values() == [w.s for w in want]


def test_lines_compare_and_hash_alike_in_every_frame(pentagon):
    # a horizontal line's s - r changes with the frame; its height does not
    frames = [pentagon.frame, Frame(Angle(1, 5), A4), Frame(A4, A2), frame_triangle()]
    points = random.Random(31).sample(generate(pentagon, 2)[-1].points, 4)
    for pt in points:
        for slope in (Angle.zero(), Angle(1, 5), A23):
            lines = [Line(pt.in_frame(g), slope) for g in frames]
            assert len(set(lines)) == 1
            assert all(a == b and a.contains(b.through) for a in lines for b in lines)
    heights = {Line(pt.in_frame(g), Angle.zero()) for pt in points for g in frames}
    assert len(heights) == len({pt.to_cartesian()[1] for pt in points})


def test_point_algebra():
    f = frame_triangle()
    z = PlanePoint(1, 2, f)
    w = PlanePoint(Fraction(1, 2), -1, f)
    assert (z + w).r == Fraction(3, 2)
    assert (z - w).s == 3
    assert (-z).r == -1
    assert (z * 2).s == 4


def test_formulas_on_batches_match_them_row_by_row(pentagon):
    # line_value, meet and cartesian take Batches as they take numbers
    rng = random.Random(17)
    frame, n, table = pentagon.frame, pentagon.working_conductor, pentagon.p_table
    points = rng.sample(generate(pentagon, 2)[-1].points, 8)
    r, s = stack([pt.r for pt in points], n), stack([pt.s for pt in points], n)
    g, d = Angle(1, 5), Angle(1, 4)
    for p in (None, table[g], table[d]):
        assert line_value(r, s, p).values() == [line_value(pt.r, pt.s, p) for pt in points]
    second = line_value(r, s, table[d])
    gap_inv = (table[g] - table[d]).inv()
    for p1, inverse in ((None, None), (table[g], gap_inv)):  # horizontal, sloped first line
        first = line_value(r, s, p1).take(slice(2, 3))
        got = meet(first, second, p1, table[d], inverse)
        v1 = first.values()[0]
        want = [meet(v1, v2, p1, table[d], inverse) for v2 in second.values()]
        assert [b.values() for b in got] == [list(c) for c in zip(*want)]

    units = [v.conductor for v in frame.unit_parts()]
    assert units == [24, 24]
    for angle, conductor in ((Angle(1, 6), 12), (Angle(1, 5), 20)):
        c = cos_of(angle)
        pts = [
            PlanePoint(c * rng.randint(1, 9) + Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                       c * rng.randint(-9, -1) - rng.randint(0, 9), frame)
            for _ in range(4)
        ]
        assert {v.conductor for pt in pts for v in (pt.r, pt.s)} == {conductor}
        m = math.lcm(conductor, *units)
        r = stack([pt.r.to_conductor(m) for pt in pts], m)
        s = stack([pt.s.to_conductor(m) for pt in pts], m)
        re, im = cartesian(r, s, frame)
        assert re.values() == [pt.to_cartesian()[0] for pt in pts]
        assert im.values() == [pt.to_cartesian()[1] for pt in pts]
        # the unit parts lie on 24: stacked on the points' own conductor, the
        # products land on m and the sum promotes r to m as well
        r, s = stack([pt.r for pt in pts], conductor), stack([pt.s for pt in pts], conductor)
        assert (r.n, s.n) == (conductor, conductor)
        re, im = cartesian(r, s, frame)
        assert (re.n, im.n) == (m, m)
        assert re.values() == [pt.to_cartesian()[0] for pt in pts]
        assert im.values() == [pt.to_cartesian()[1] for pt in pts]


# The batch formulas as they were written before their steps were deferred:
# every Batch operation normalizes its result.


def _meet_stepwise(v1, v2, p1, p2, gap_inv):
    if p1 is None:
        r = v2 - v1 * p2
        return r, r + v1
    gap = (v1 - v2) * gap_inv
    r = v1 - gap * p1
    return r, r + gap


def _cartesian_stepwise(r, s, frame):
    unit_re, unit_im = frame.unit_parts()
    gap = s - r
    return r + gap * unit_re, gap * unit_im


def _batch_fields(b):
    return b.n, b.rows(), b.num_bits, b.den_bits


def _meet_cases(u, rows):
    """(v1, v2, p1, p2, gap_inv) for every direction pair of u: each line of
    the first direction through rows against every line of the second, as a
    level of generate meets them."""
    table, r, s = u.p_table, *rows
    for g, d in itertools.combinations(u.slopes, 2):
        first, second = line_value(r, s, table.get(g)), line_value(r, s, table[d])
        inverse = geometry._inverse_p_gap(u.frame, g, d) if g in table else None
        cells = np.arange(len(first.den) * len(second.den))
        yield (first.take(cells // len(second.den)), second.take(cells % len(second.den)),
               table.get(g), table[d], inverse)


@pytest.mark.parametrize("int64_bits", [0, 4])
def test_deferred_meet_and_cartesian_match_the_stepwise_formulas(int64_limit, pentagon, int64_bits):
    # at 0 bits every kernel runs on Python ints; at 4 some results fit
    # int64 and some do not, and the deferred intermediates are wider than
    # the normalized steps of the reference
    int64_limit(int64_bits)
    points = generate(pentagon, 1)[-1].points
    n = pentagon.working_conductor
    rows = stack([pt.r for pt in points], n), stack([pt.s for pt in points], n)
    dtypes = set()
    for v1, v2, p1, p2, inverse in _meet_cases(pentagon, rows):
        got, want = meet(v1, v2, p1, p2, inverse), _meet_stepwise(v1, v2, p1, p2, inverse)
        assert [_batch_fields(b) for b in got] == [_batch_fields(b) for b in want]
        assert [b.num.dtype for b in got] == [b.num.dtype for b in want]
        dtypes.update(b.num.dtype for b in got if b.num_bits)
        parts, stepwise = cartesian(*got, pentagon.frame), _cartesian_stepwise(*got, pentagon.frame)
        assert [_batch_fields(b) for b in parts] == [_batch_fields(b) for b in stepwise]
    assert np.dtype(object) in dtypes
    assert (np.dtype(np.int64) in dtypes) == bool(int64_bits)


def test_an_intermediate_past_int64_runs_on_python_ints(monkeypatch, int64_limit, pentagon):
    # rows of 62-bit numerators over 7: each formula's results fit int64,
    # but v1 - gap * p1 over the product of 7 and the denominators of gap_inv
    # and p1, 15, has numerators of 66 bits (and v1 + gap * unit_re over
    # 7 * 2 of 63), so the deferred steps must leave int64 rather than wrap,
    # and the results must be the exact values
    int64_limit(cyclotomic._INT64_BITS)
    n, table, frame = pentagon.working_conductor, pentagon.p_table, pentagon.frame
    g, d = Angle(1, 5), Angle(1, 4)
    big = [CyclotomicReal.from_coeffs(n, [Fraction(2**61 + k, 7)] + [0] * 31) for k in (1, 3, 7)]
    v1 = stack(big, n)
    assert v1.num.dtype == np.int64 and v1.num_bits == 62
    inverse = geometry._inverse_p_gap(frame, g, d)
    seen, normalized = [], cyclotomic._normalized
    monkeypatch.setattr(cyclotomic, "_normalized", lambda m, num, den: (
        seen.append(num.dtype), normalized(m, num, den))[1])
    r, s = meet(v1, v1, table[g], table[d], inverse)  # equal lines: the point is (v1, v1)
    assert seen == [np.dtype(object)] * 2
    assert r.num.dtype == np.int64 and r.rows() == s.rows() == v1.rows()
    third = stack([b + Fraction(1, 3) for b in big], n)
    for p1, gap_inv in ((table[g], inverse), (None, None)):
        got = meet(v1, third, p1, table[d], gap_inv)
        want = [meet(a, b, p1, table[d], gap_inv) for a, b in zip(v1.values(), third.values())]
        assert [b.values() for b in got] == [list(c) for c in zip(*want)]
    seen.clear()
    re, im = cartesian(v1, v1, frame)
    assert seen[0] == np.dtype(object)
    assert re.rows() == v1.rows() and not im.num.any()
    assert [re.values(), im.values()] == [list(c) for c in zip(
        *(PlanePoint(x, x, frame).to_cartesian() for x in v1.values()))]


def test_meet_and_cartesian_normalize_each_result_once(monkeypatch, pentagon):
    points = generate(pentagon, 2)[-1].points[:40]
    n, frame = pentagon.working_conductor, pentagon.frame
    rows = stack([pt.r for pt in points], n), stack([pt.s for pt in points], n)
    calls, normalized = [], cyclotomic._normalized
    monkeypatch.setattr(cyclotomic, "_normalized", lambda *args: (
        calls.append(args[0]), normalized(*args))[1])
    cases = list(_meet_cases(pentagon, rows))
    assert {p1 is None for _, _, p1, _, _ in cases} == {True, False}
    for v1, v2, p1, p2, inverse in cases:
        calls.clear()
        meet(v1, v2, p1, p2, inverse)
        assert len(calls) == 2
    # the unit parts lie on 24 and these rows on 20: the products promote
    # them to 120 without a normalization of their own
    c = cos_of(Angle(1, 5))
    r = stack([c * k for k in range(1, 5)], 20)
    s = stack([c * -k + 1 for k in range(1, 5)], 20)
    for args in (rows, (r, s)):
        calls.clear()
        re, im = cartesian(*args, frame)
        assert len(calls) == 2 and re.n == im.n == math.lcm(args[0].n, 24)


# Reference frame constants: one inverse of each whole product, made at the
# conductor of that product.


def _gap_inverse_reference(frame):
    return signed_sin(frame.alpha, frame.beta).inv()


def _p_value_reference(frame, gamma):
    numerator = signed_sin(frame.alpha, gamma) * sin_of(frame.beta)
    return numerator * (signed_sin(frame.alpha, frame.beta) * sin_of(gamma)).inv()


def _unit_parts_reference(frame):
    scale = sin_of(frame.beta) * _gap_inverse_reference(frame)
    return -cos_of(frame.alpha) * scale, -sin_of(frame.alpha) * scale


def _ratio_elements_reference(frame):
    qa = sin_of(frame.alpha) * _gap_inverse_reference(frame)
    qb = sin_of(frame.beta) * _gap_inverse_reference(frame)
    return qa * qa, qb * qb


def _from_cartesian_reference(re, im, frame):
    unit_re, unit_im = _unit_parts_reference(frame)
    gap = im * unit_im.inv()
    r = re - gap * unit_re
    return r, r + gap


def _same(a, b):
    return a == b and (a.conductor, a._num, a._den) == (b.conductor, b._num, b._den)


def test_frame_constants_match_the_inverses_of_products():
    rng = random.Random(61)
    pool = angle_pool((2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12))
    conductors, descending = set(), set()
    for _ in range(40):
        alpha, beta, gamma = rng.sample(pool, 3)
        frame = Frame(alpha, beta)
        u = SlopeSet([Angle.zero(), alpha, beta, gamma], alpha=alpha, beta=beta)
        conductors.add(u.working_conductor)
        descending.add(alpha > beta)
        assert _same(frame.p_value(gamma), _p_value_reference(frame, gamma))
        for got, want in zip(frame.unit_parts(), _unit_parts_reference(frame)):
            assert _same(got, want)
        for got, want in zip(ratio_elements(u), _ratio_elements_reference(frame)):
            assert _same(got, want)
        trace = 2 * cos_of(alpha) * sin_of(beta) * _gap_inverse_reference(frame)
        assert _same(trace_element(u), trace)
        re = cos_of(gamma) * rng.randint(-9, 9) + Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        im = sin_of(gamma) * rng.randint(1, 9) - rng.randint(0, 9)
        point = PlanePoint.from_cartesian(re, im, frame)
        for got, want in zip((point.r, point.s), _from_cartesian_reference(re, im, frame)):
            assert _same(got, want)
    # both orders of the pair, on conductors from 28 to 2772
    assert descending == {True, False} and len(conductors) > 20


def test_inverse_sin_closed_form_is_the_field_inverse():
    # 1/sin(k*pi/N) by the geometric sum is the inverse inv() finds, on the
    # same conductor and in the same canonical form, for all 1,085 angles
    # with N < 60; 1/sin(0) stays a division by zero
    geometry._inverse_sin.cache_clear()
    angles = [Angle(k, n) for n in range(2, 60) for k in range(1, n) if math.gcd(k, n) == 1]
    assert len(angles) == 1085
    for a in angles:
        x = sin_of(a)
        y = geometry._inverse_sin(a)
        assert _same(y, x.inv()) and y.conductor == a.conductor, a
        assert x * y == 1
    with pytest.raises(ZeroDivisionError):
        geometry._inverse_sin(Angle.zero())


def test_1980_pvalues_and_ring_invert_only_single_sines(monkeypatch, capsys):
    # every frame constant is a product of sines and their inverses; a sine
    # inverse is a closed form at the sine's own conductor, so no element
    # at the working conductor 1980 is inverted, and any that is inverted
    # is a single sine
    slopes = [Angle(1, 11), Angle(5, 9), Angle(7, 10)]
    gaps = [angle_difference(a, b)[1] for a, b in itertools.combinations(slopes, 2)]
    sines = {(s.conductor, s._num, s._den) for s in map(sin_of, slopes + gaps)}
    for cached in (geometry._p_value, geometry._unit_parts, geometry._inverse_p_gap,
                   geometry._inverse_sin, geometry._inverse_unit_im,
                   ring_analysis._monomial_lattice, ring_analysis._fixing_group):
        cached.cache_clear()
    inverted = []
    inverse = CyclotomicReal.inv

    def recording(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(CyclotomicReal, "inv", recording)
    for command in ("pvalues", "ring"):
        assert main([command, "--slopes", "0,pi/11,5pi/9,7pi/10", "--format", "json"]) in (0, 3)
    capsys.readouterr()
    assert all(x.conductor != 1980 for x in inverted)
    for x in inverted:
        assert x.conductor < 1980 and (x.conductor, x._num, x._den) in sines


FRAME_CACHES = (geometry._p_value, geometry._unit_parts, geometry._inverse_unit_im,
                geometry._inverse_p_gap)


def test_frame_caches_keep_a_bounded_number_of_sets():
    # a 5-slope set needs at most 20 entries in any frame cache, so a sweep
    # leaves each at its bound of 64 and a repeat of the last set still hits
    for cached in FRAME_CACHES:
        cached.cache_clear()
    rng = random.Random(19)
    pool = angle_pool(range(2, 13))
    bounds = ring_analysis.SearchBounds(max_den_exp=2, max_num_deg=8, max_candidates=300)
    for _ in range(40):
        u = SlopeSet([Angle.zero()] + rng.sample(pool, rng.choice([3, 4])))
        ring_analysis.ring_check(u, bounds)
    assert all(cached.cache_info().currsize <= 64 for cached in FRAME_CACHES)
    assert geometry._p_value.cache_info().currsize == 64
    generate(u, 1)
    misses = [cached.cache_info().misses for cached in FRAME_CACHES]
    generate(u, 1)
    assert [cached.cache_info().misses for cached in FRAME_CACHES] == misses
