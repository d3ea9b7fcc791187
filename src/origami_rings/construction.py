"""Iterative construction of origami point sets.

Level 0 is {0, 1}.  Each next level intersects every pair of lines of
distinct directions drawn through the points collected so far, with
directions taken from the slope set.  Levels are cumulative and all
coordinates stay on the working conductor of the set, so points dedup
by their exact coefficient vectors.

Enumeration order is deterministic: direction pairs ascend, line
invariants keep first-seen order, so a truncated run (point_cap) always
returns the same prefix.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .angles import Angle
from .cyclotomic import CyclotomicReal, rewrite_in_conductor
from .geometry import PlanePoint, meet
from .slopes import SlopeSet

DEFAULT_POINT_CAP = 50_000


def _key(value: CyclotomicReal) -> tuple:
    return (value._num, value._den)


class LevelSet:
    """The cumulative point set after a number of construction rounds."""

    __slots__ = ("level", "points", "truncated", "_keys", "_frame", "_conductor")

    def __init__(self, level: int, points: Sequence[PlanePoint], truncated: bool):
        self.level = level
        self.points = tuple(points)
        self.truncated = truncated
        self._frame = points[0].frame if points else None
        self._conductor = points[0].r.conductor if points else 1
        self._keys = frozenset((_key(p.r), _key(p.s)) for p in self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        if not isinstance(point, PlanePoint) or self._frame is None:
            return False
        moved = point.in_frame(self._frame)
        coords = []
        for value in (moved.r, moved.s):
            rewritten = rewrite_in_conductor(value, self._conductor)
            if rewritten is None:
                return False
            coords.append(rewritten)
        return (_key(coords[0]), _key(coords[1])) in self._keys

    def __repr__(self):
        flag = ", truncated" if self.truncated else ""
        return f"LevelSet(level={self.level}, points={len(self.points)}{flag})"


def generate(
    u: SlopeSet, k_max: int, point_cap: Optional[int] = DEFAULT_POINT_CAP
) -> list[LevelSet]:
    """Levels 0..k_max of the construction over the slope set u.

    Respecting point_cap means a level stops growing once it holds that
    many points; the level is then flagged truncated and later levels
    keep building from the truncated prefix.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if point_cap is not None and point_cap < 2:
        raise ValueError("point_cap must be at least 2, the size of level 0")
    cap = point_cap if point_cap is not None else float("inf")
    frame = u.frame
    n = u.working_conductor
    table = u.p_table
    inverse_gaps = {
        (g, d): (table[g] - table[d]).inv()
        for g, d in itertools.combinations(u.nonzero_slopes, 2)
    }

    zero = CyclotomicReal.from_rational(0, n)
    one = CyclotomicReal.from_rational(1, n)
    current: dict[tuple, PlanePoint] = {}
    for value in (zero, one):
        current[(_key(value), _key(value))] = PlanePoint(value, value, frame)
    levels = [LevelSet(0, list(current.values()), False)]

    for level in range(1, k_max + 1):
        # one invariant value per line actually present at this level
        line_values: dict[Angle, dict[tuple, CyclotomicReal]] = {
            g: {} for g in u.slopes
        }
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


def contains(levels: Iterable[LevelSet], point: PlanePoint) -> bool:
    """Exact membership of a point in the deepest generated level."""
    last = None
    for last in levels:
        pass
    if last is None:
        return False
    return point in last
