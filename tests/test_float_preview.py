import math

import numpy as np
import pytest

from origami_rings.construction import generate
from origami_rings.float_preview import generate_float
from origami_rings.slopes import SlopeSet


def radians(u: SlopeSet) -> list[float]:
    return [a.radians for a in u.slopes]


def test_matches_exact_generator_on_triangle(triangle):
    exact = generate(triangle, 2)
    preview = generate_float(radians(triangle), 2)
    assert [len(points) for points, _ in preview] == [len(l) for l in exact]
    # compare the actual clouds, not just counts
    exact_pts = []
    for pt in exact[-1]:
        re, im = pt.to_cartesian()
        exact_pts.append(complex(float(re.decimal(12)), float(im.decimal(12))))
    exact_pts.sort(key=lambda z: (z.real, z.imag))
    float_pts = sorted(preview[-1][0], key=lambda z: (z.real, z.imag))
    for a, b in zip(exact_pts, float_pts):
        assert abs(a - b) < 1e-8


def test_matches_exact_generator_on_four_slopes(four_slopes):
    exact = generate(four_slopes, 2)
    preview = generate_float(radians(four_slopes), 2)
    assert [len(points) for points, _ in preview] == [2, 8, 88]
    assert [len(l) for l in exact] == [2, 8, 88]


def test_deterministic():
    slopes = [0.0, math.pi / 5, math.pi / 4, math.pi / 3]
    a = generate_float(slopes, 2)
    b = generate_float(slopes, 2)
    for (pa, ta), (pb, tb) in zip(a, b):
        assert ta == tb
        assert np.array_equal(pa, pb)


def test_point_cap():
    slopes = [0.0, math.pi / 5, math.pi / 4, math.pi / 3]
    levels = generate_float(slopes, 2, point_cap=30)
    points, truncated = levels[-1]
    assert truncated
    assert len(points) == 30


def test_folds_slopes_into_half_turn():
    # pi and 0 are the same direction; 4pi/3 equals pi/3
    a = generate_float([0.0, math.pi / 3, 2 * math.pi / 3], 2)
    b = generate_float([math.pi, math.pi / 3 + math.pi, 2 * math.pi / 3], 2)
    assert [len(p) for p, _ in a] == [len(p) for p, _ in b]
    # a negative slope folds up by pi: -pi/3 is 2pi/3
    c = generate_float([0.0, math.pi / 3, -math.pi / 3], 2)
    assert [len(p) for p, _ in a] == [len(p) for p, _ in c]


@pytest.mark.parametrize("slopes, message", [
    ([0.0, math.pi, 0.5], "need at least three distinct directions"),
    ([0.5, 1.0, 1.5], "the horizontal direction 0 must be included"),
], ids=["two-after-folding", "no-horizontal"])
def test_direction_sets_that_cannot_seed_are_rejected(slopes, message):
    with pytest.raises(ValueError, match=message):
        generate_float(slopes, 1)


def test_seed_points():
    levels = generate_float([0.0, 1.0, 2.0], 0)
    points, _ = levels[0]
    assert sorted(points.tolist(), key=lambda z: z.real) == [0j, 1 + 0j]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_slopes_are_rejected_by_value(bad):
    # a NaN used to drop out of the direction set silently, and an
    # infinity to end in math.fmod's domain error
    for slopes in ([0.0, 0.5, 1.0, bad], [0.0, 0.5, bad], [bad, 0.0, 0.5, 1.0]):
        with pytest.raises(ValueError, match=f"slope {bad} is not a finite"):
            generate_float(slopes, 1)


@pytest.mark.parametrize("eps", [0.0, -1e-9, math.nan, math.inf])
def test_eps_must_be_positive_and_finite(eps):
    with pytest.raises(ValueError, match=f"eps must be a positive finite number, got {eps}"):
        generate_float([0.0, 0.5, 1.0], 1, eps=eps)
