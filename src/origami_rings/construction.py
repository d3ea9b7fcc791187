"""Iterative construction of origami point sets.

Level 0 is {0, 1}.  Each next level intersects every pair of lines of
distinct directions drawn through the points collected so far, with
directions taken from the slope set.  Levels are cumulative and all
coordinates stay on the working conductor of the set, so points dedup
by their exact coefficient vectors.

Enumeration order is deterministic: direction pairs ascend, line
invariants keep first-seen order, so a truncated run (point_cap) always
returns the same prefix.  A level runs geometry's line_value and meet on
integer arrays (cyclotomic.Batch), one row of the pair grid at a time:
one line of the first direction against every line of the second.  That
keeps the order, and the cap cuts in after at most one row of extra work.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional, Sequence

from .angles import Angle
from .cyclotomic import Batch, CyclotomicReal, rewrite_in_conductor, stack
from .geometry import PlanePoint, _inverse_p_gap, line_value, meet
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
        self._keys = None  # built on the first membership test

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        if not isinstance(point, PlanePoint) or not self.points:
            return False
        if self._keys is None:  # every point in the first one's frame, on one conductor
            frame = self._frame = self.points[0].frame
            moved = [p.in_frame(frame) for p in self.points]
            n = self._conductor = math.lcm(*(v.conductor for p in moved for v in (p.r, p.s)))
            self._keys = {(_key(p.r.to_conductor(n)), _key(p.s.to_conductor(n))) for p in moved}
        moved = point.in_frame(self._frame)
        coords = tuple(rewrite_in_conductor(v, self._conductor) for v in (moved.r, moved.s))
        return None not in coords and tuple(map(_key, coords)) in self._keys

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
    frame, n, table = u.frame, u.working_conductor, u.p_table
    gap_inv = {
        (g, d): _inverse_p_gap(frame, g, d).to_conductor(n)
        for g, d in itertools.combinations(u.nonzero_slopes, 2)
    }

    seed = [CyclotomicReal.from_rational(c, n) for c in (0, 1)]
    current = {(_key(v), _key(v)): PlanePoint(v, v, frame) for v in seed}
    levels = [LevelSet(0, list(current.values()), False)]

    for level in range(1, k_max + 1):
        # one invariant value per line actually present at this level, in first-seen order
        r = stack([pt.r for pt in current.values()], n)
        s = stack([pt.s for pt in current.values()], n)
        line_values: dict[Angle, Batch] = {}
        for g in u.slopes:
            values = line_value(r, s, table.get(g))
            first = {key: i for i, key in reversed(list(enumerate(values.rows())))}
            line_values[g] = values.take(sorted(first.values()))

        new_points = dict(current)
        truncated = len(new_points) >= cap
        for g, d in itertools.combinations(u.slopes, 2):
            first_lines, second_lines = line_values[g], line_values[d]
            p1, inverse = table.get(g), gap_inv.get((g, d))
            for i in range(len(first_lines.den)):
                if truncated:
                    break
                r, s = meet(first_lines.take(slice(i, i + 1)), second_lines, p1, table[d], inverse)
                for key in zip(r.rows(), s.rows()):
                    if key not in new_points:
                        r_value, s_value = (CyclotomicReal(n, *k, _raw=True) for k in key)
                        new_points[key] = PlanePoint(r_value, s_value, frame)
                        if len(new_points) >= cap:
                            truncated = True
                            break
        current = new_points
        levels.append(LevelSet(level, list(current.values()), truncated))
    return levels


def contains(levels: Iterable[LevelSet], point: PlanePoint) -> bool:
    """Exact membership of a point in the deepest generated level."""
    last = next(reversed(list(levels)), None)
    return last is not None and point in last
