import itertools
from fractions import Fraction

from origami_rings.angles import Angle
from origami_rings.construction import contains, generate
from origami_rings.cyclotomic import CyclotomicReal, sqrt_rational
from origami_rings.float_preview import generate_float
from origami_rings.geometry import PlanePoint
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
    assert contains(levels, f.unit())
    far = PlanePoint(200, 200, f)
    assert not contains(levels, far)
    # a point from a different frame still matches through projections
    g = SlopeSet(["0", "pi/4", "pi/2"]).frame
    one_again = PlanePoint(1, 1, g)
    assert contains(levels, one_again)


def test_real_points_of_triangle_are_integers(triangle):
    levels = generate(triangle, 3, point_cap=5000)
    for pt in levels[-1]:
        if pt.is_real:
            assert pt.as_real().is_integer
        assert pt.r.is_integer and pt.s.is_integer


def test_generate_at_conductor_1980(monkeypatch):
    # each inverse gap, at phi(1980) = 480, took close to a minute through
    # Euclid on Fraction polynomials
    u = SlopeSet(["0", "pi/11", "5pi/9", "7pi/10"])
    assert u.working_conductor == 1980
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
