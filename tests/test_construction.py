import itertools
from fractions import Fraction

import numpy as np
import pytest

from origami_rings import construction, cyclotomic, geometry
from origami_rings.angles import Angle
from origami_rings.construction import LevelSet, generate
from origami_rings.cyclotomic import CyclotomicReal, cos_of, sqrt_rational
from origami_rings.export import csv_text, json_text
from origami_rings.float_preview import generate_float
from origami_rings.geometry import PlanePoint, meet
from origami_rings.slopes import SlopeSet


def test_level_zero_is_seed_pair(triangle):
    levels = generate(triangle, 0)
    assert len(levels) == 1
    assert len(levels[0]) == 2
    zero, one = levels[0].points
    assert zero.is_real and zero.as_real().is_zero
    assert one.is_real and one.as_real() == 1


def test_triangle_level_sizes(triangle):
    levels = generate(triangle, 2)
    assert [len(l) for l in levels] == [2, 4, 8]
    assert not any(l.truncated for l in levels)


def test_triangle_level_one_exact(triangle):
    levels = generate(triangle, 1)
    f = triangle.frame
    s32 = sqrt_rational(3) / 2
    half = Fraction(1, 2)
    expected = {
        f.zero(),
        f.one(),
        PlanePoint.from_cartesian(half, s32, f),
        PlanePoint.from_cartesian(half, -s32, f),
    }
    assert set(levels[1].points) == expected


def test_levels_are_cumulative(triangle):
    levels = generate(triangle, 2)
    for smaller, larger in zip(levels, levels[1:]):
        for pt in smaller:
            assert pt in larger


def test_four_slope_level_sizes(four_slopes):
    levels = generate(four_slopes, 2)
    assert [len(l) for l in levels] == [2, 8, 88]


def test_deterministic_order(four_slopes):
    a = generate(four_slopes, 2)
    b = generate(four_slopes, 2)
    for la, lb in zip(a, b):
        assert [(p.r, p.s) for p in la] == [(p.r, p.s) for p in lb]


def test_point_cap_truncates(four_slopes):
    levels = generate(four_slopes, 2, point_cap=20)
    assert levels[2].truncated
    assert len(levels[2]) == 20
    full = generate(four_slopes, 2)
    assert not full[2].truncated


def test_contains(triangle):
    levels = generate(triangle, 2)
    f = triangle.frame
    assert f.unit() in levels[-1]
    far = PlanePoint(200, 200, f)
    assert far not in levels[-1]
    # a point from a different frame still matches through projections
    g = SlopeSet(["0", "pi/4", "pi/2"]).frame
    one_again = PlanePoint(1, 1, g)
    assert one_again in levels[-1]


def test_level_set_contains_its_own_points_across_conductors_and_frames(pentagon):
    # r on conductor 20 beside r = 0 on conductor 1, and a point stored in
    # another frame: each is found, whatever the first point's field
    f = pentagon.frame
    g = SlopeSet(["0", "pi/4", "pi/2"]).frame
    first = PlanePoint(cos_of(Angle(1, 5)), 1, f)
    points = [first, PlanePoint(0, 0, f), PlanePoint(sqrt_rational(3), 2, g)]
    level = LevelSet(0, points, False)
    assert all(pt in level for pt in points)
    assert first.in_frame(g) in level
    assert PlanePoint(1, 1, f) not in level
    assert PlanePoint(cos_of(Angle(1, 7)), 1, f) not in level


def test_real_points_of_triangle_are_integers(triangle):
    levels = generate(triangle, 3, point_cap=5000)
    for pt in levels[-1]:
        if pt.is_real:
            assert pt.as_real().is_integer
        assert pt.r.is_integer and pt.s.is_integer


def test_generate_at_conductor_1980(monkeypatch):
    # each inverse gap, at phi(1980) = 480, took close to a minute through
    # Euclid on Fraction polynomials; the gaps come from geometry's cache,
    # emptied so that each one is inverted here
    u = SlopeSet(["0", "pi/11", "5pi/9", "7pi/10"])
    assert u.working_conductor == 1980
    geometry._inverse_p_gap.cache_clear()
    inverted, inv = [], CyclotomicReal.inv

    def recording_inv(x):
        inverted.append((x, inv(x)))
        return inverted[-1][1]

    monkeypatch.setattr(CyclotomicReal, "inv", recording_inv)
    levels = generate(u, 1)
    preview = generate_float([a.radians for a in u.slopes], 1)
    assert [len(l) for l in levels] == [len(points) for points, _ in preview]
    table = u.p_table
    for g, d in itertools.combinations(u.nonzero_slopes, 2):
        gap = table[g] - table[d]
        (gap_inv,) = [y for x, y in inverted if x == gap]
        assert gap * gap_inv == 1


def _key(value):
    return (value._num, value._den)


def _generate_reference(u, k_max, point_cap=50_000):
    """The former construction: one geometry.meet, so two CyclotomicReal
    products, per pair of lines."""
    cap = point_cap
    frame, n, table = u.frame, u.working_conductor, u.p_table
    inverse_gaps = {
        (g, d): (table[g] - table[d]).inv()
        for g, d in itertools.combinations(u.nonzero_slopes, 2)
    }
    current = {}
    for value in (CyclotomicReal.from_rational(0, n), CyclotomicReal.from_rational(1, n)):
        current[(_key(value), _key(value))] = PlanePoint(value, value, frame)
    levels = [LevelSet(0, list(current.values()), False)]
    for level in range(1, k_max + 1):
        line_values = {g: {} for g in u.slopes}
        for pt in current.values():
            gap = pt.s - pt.r
            for g in u.slopes:
                v = gap if g.is_zero else pt.r + gap * table[g]
                line_values[g].setdefault(_key(v), v)
        new_points = dict(current)
        truncated = len(new_points) >= cap
        for g, d in itertools.combinations(u.slopes, 2):
            if truncated:
                break
            p1 = None if g.is_zero else table[g]
            gap_inv = inverse_gaps.get((g, d))
            for v1 in line_values[g].values():
                if truncated:
                    break
                for v2 in line_values[d].values():
                    r, s = meet(v1, v2, p1, table[d], gap_inv)
                    key = (_key(r), _key(s))
                    if key not in new_points:
                        new_points[key] = PlanePoint(r, s, frame)
                        if len(new_points) >= cap:
                            truncated = True
                            break
        current = new_points
        levels.append(LevelSet(level, list(current.values()), truncated))
    return levels


def _exact_levels(levels):
    return [
        (
            level.truncated,
            [(v.conductor, v._num, v._den) for pt in level for v in (pt.r, pt.s)],
        )
        for level in levels
    ]


@pytest.mark.parametrize(
    "slopes, frame, k_max, cap",
    [
        ("0,pi/3,2pi/3", None, 4, 50_000),
        ("0,pi/5,pi/4,pi/3", None, 3, 50_000),
        ("0,pi/6,pi/3,pi/2", None, 4, 300),
        ("0,pi/6,pi/3,pi/2", None, 4, 2500),
        ("0,pi/5,pi/4,pi/3", ("pi/5", "pi/4"), 2, 50_000),
        ("0,pi/7,pi/3,pi/2,2pi/3", None, 2, 50_000),
        ("0,pi/11,5pi/9,7pi/10", None, 1, 50_000),
    ],
)
def test_generate_matches_per_pair_reference(slopes, frame, k_max, cap):
    u = SlopeSet(slopes.split(","), *(frame or ()))
    got = generate(u, k_max, point_cap=cap)
    assert _exact_levels(got) == _exact_levels(_generate_reference(u, k_max, cap))


def test_generate_python_int_kernels_match(monkeypatch, int64_limit, pentagon):
    # with no room in int64, every batch kernel runs on Python ints
    int64_limit(0)
    dtypes, normalized = set(), cyclotomic._normalized

    def recording_normalized(n, num, den):
        batch = normalized(n, num, den)
        if batch.num_bits:  # an all-zero batch fits any limit
            dtypes.add(batch.num.dtype)
        return batch

    monkeypatch.setattr(cyclotomic, "_normalized", recording_normalized)
    got = generate(pentagon, 2)
    assert dtypes == {np.dtype(object)}
    assert _exact_levels(got) == _exact_levels(_generate_reference(pentagon, 2))


@pytest.mark.parametrize("int64_bits", [0, 4])
def test_generate_keys_a_point_alike_whatever_its_batch_dtype(monkeypatch, int64_limit, pentagon,
                                                              int64_bits):
    # at 0 bits every batch of rows is on Python ints; at 4 some are and
    # some are int64, so one point can reach the dedup from batches of
    # either dtype and must get one key from both
    int64_limit(int64_bits)
    dtypes, row_keys = set(), construction.row_keys

    def recording_row_keys(*batches):
        dtypes.update(b.num.dtype for b in batches if len(b.den))
        return row_keys(*batches)

    monkeypatch.setattr(construction, "row_keys", recording_row_keys)
    k_max = 3 if int64_bits else 2
    got = generate(pentagon, k_max)
    assert np.dtype(object) in dtypes
    assert (np.dtype(np.int64) in dtypes) == bool(int64_bits)
    assert _exact_levels(got) == _exact_levels(_generate_reference(pentagon, k_max))


@pytest.mark.parametrize("cap", [89, 90, 1000, 4186, 4187])
def test_generate_cap_in_a_chunk_and_on_level_boundaries(pentagon, cap):
    # the pentagon's levels hold 2, 8, 88 and 4,186 points: a cap of 89 or
    # 4,187 stops one point into a level, 90 and 1,000 inside a chunk of the
    # grid, and 4,186 on the last point of level 3
    got = generate(pentagon, 4, point_cap=cap)
    assert len(got[-1]) == cap
    assert _exact_levels(got) == _exact_levels(_generate_reference(pentagon, 4, cap))


def test_generate_and_export_build_no_point_objects(monkeypatch, pentagon):
    # a level keeps its rows as integer arrays: the exports, len, truncated
    # and membership read those, and PlanePoints are built on the first
    # read of points, once each, shared by the levels that follow
    reference = _generate_reference(pentagon, 3)
    born_at_3 = reference[3].points[-1]
    built, init = [], PlanePoint.__init__

    def spy(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(PlanePoint, "__init__", spy)
    levels = generate(pentagon, 3)
    assert json_text(pentagon, levels) and csv_text(levels)
    assert [len(level) for level in levels] == [2, 8, 88, 4186]
    assert not any(level.truncated for level in levels)
    assert born_at_3 in levels[3] and born_at_3 not in levels[2]
    assert built == []
    assert _exact_levels(levels) == _exact_levels(reference)
    assert len(built) == 4186
    for before, after in zip(levels, levels[1:]):
        assert all(a is b for a, b in zip(before.points, after.points))
