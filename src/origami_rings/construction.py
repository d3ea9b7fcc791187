"""Iterative construction of origami point sets.

Level 0 is {0, 1}.  Each next level intersects every pair of lines of
distinct directions drawn through the points collected so far, with
directions taken from the slope set.  Levels are cumulative and all
coordinates stay on the working conductor of the set, so points dedup
by their exact coefficient vectors.

Enumeration order is deterministic: direction pairs ascend, line
invariants keep first-seen order, so a truncated run (point_cap) always
returns the same prefix.  A level runs geometry's line_value and meet on
integer arrays (cyclotomic.Batch), a chunk of rows of the pair grid at a
time: a few lines of the first direction against every line of the
second, as many as cannot overshoot the cap and at most _BLOCK pairs,
so the cap cuts in after at most one row of extra work.  Each coordinate
gets an id by the exact key of its row (row_keys), and a point dedups as
the pair of its coordinates' ids: a 50,000-point level keeps 50,000 small
pairs, not 50,000 keys of 2 * (phi + 1) words.  A level keeps its new
rows as batches, and Python point objects are built only when a caller
reads LevelSet.points.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .angles import Angle
from .cyclotomic import Batch, CyclotomicReal, concat, rewrite_in_conductor, stack
from .geometry import Frame, PlanePoint, _inverse_p_gap, line_value, meet
from .slopes import SlopeSet

DEFAULT_POINT_CAP = 50_000

# Rows in one meet of the pair grid and in one row_keys call of
# distinct_rows: a bound on their temporaries, so peak memory does not grow
# with the level.
_BLOCK = 4096


def row_keys(*batches: Batch) -> list:
    """One exact key per row of equally long batches read side by side:
    the bytes of the int64 row (num, den, num, den, ...), or a tuple of
    Python ints for a row that does not fit int64.  Rows are normalized, so
    equal values on one conductor get equal keys, whatever their batches'
    dtypes."""
    parts = [a for b in batches for a in (b.num, b.den[:, None])]
    if all(a.dtype == np.int64 for a in parts):
        return _bytes_keys(np.hstack(parts))
    rows = np.hstack([a.astype(object) for a in parts])
    keys = [tuple(row) for row in rows.tolist()]
    fits = np.flatnonzero([all(abs(c) < 2**63 for c in key) for key in keys])
    for i, key in zip(fits.tolist(), _bytes_keys(rows[fits].astype(np.int64))):
        keys[i] = key
    return keys


def distinct_rows(b: Batch) -> tuple[np.ndarray, np.ndarray]:
    """(first, index): the first row of each distinct value of b, ascending,
    and for each row the place of its value in first."""
    seen: dict = {}
    position = np.empty(len(b.den), np.int64)  # the first row of each row's value
    for start in range(0, len(b.den), _BLOCK):
        keys = row_keys(b.take(slice(start, start + _BLOCK)))
        position[start:start + len(keys)] = [
            seen.setdefault(key, i) for i, key in enumerate(keys, start)]
    first = np.array(list(seen.values()), np.int64)
    place = np.empty(len(b.den), np.int64)
    place[first] = np.arange(len(first))
    return first, place[position]


def _bytes_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D int64 array."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


class LevelSet:
    """The cumulative point set after a number of construction rounds.

    A level holds rows: the coordinates (r, s) of points in one frame, as
    two Batches on one conductor.  A generated or read-back level holds
    the rows it adds to the level before it (_grown);
    LevelSet(level, points, truncated) keeps its points and stacks them at
    once, in the first point's frame.  len, truncated and membership answer
    from the rows.  A chained level's points are built from them on first
    use, one PlanePoint per point across levels (a level extends the tuple
    of the level before it), and the points of one level share one
    CyclotomicReal per distinct coordinate.
    """

    __slots__ = ("level", "truncated", "_previous", "_rows", "_size", "_keys", "_points")

    def __init__(self, level: int, points: Sequence[PlanePoint], truncated: bool):
        points = tuple(points)
        frame = points[0].frame if points else None
        moved = [p.in_frame(frame) for p in points]
        both = stack([p.r for p in moved] + [p.s for p in moved])  # one conductor for r and s
        size = len(moved)
        rows = (frame, both.take(slice(size)), both.take(slice(size, None)))
        self.level, self.truncated, self._size = level, truncated, size
        self._previous, self._rows, self._keys, self._points = None, rows, None, points

    @classmethod
    def _grown(cls, level: int, previous: "Optional[LevelSet]", rows: tuple,
               truncated: bool) -> "LevelSet":
        """The level previous, plus rows (frame, r, s)."""
        self = cls.__new__(cls)
        self.level, self.truncated = level, truncated
        self._previous, self._rows, self._keys, self._points = previous, rows, None, None
        self._size = len(rows[1].den) + (len(previous) if previous is not None else 0)
        return self

    @property
    def points(self) -> tuple[PlanePoint, ...]:
        if self._points is None:
            frame, r, s = self._rows
            both = concat([r, s])
            first, index = distinct_rows(both)
            values = both.take(first).values()
            coords = [values[i] for i in index.tolist()]
            size = len(r.den)
            before = self._previous.points if self._previous is not None else ()
            self._points = before + tuple(
                PlanePoint(x, y, frame) for x, y in zip(coords[:size], coords[size:]))
        return self._points

    def row_batches(self) -> list[tuple[Frame, Batch, Batch]]:
        """The rows (frame, r, s) that make up the level, the first level's
        first; a chained level shares the tuples of the levels before it."""
        before = self._previous.row_batches() if self._previous is not None else []
        return before + [self._rows]

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        if not isinstance(point, PlanePoint) or not self._size:
            return False
        rows = self.row_batches()
        if self._keys is None:
            self._keys = {key for _, r, s in rows for key in row_keys(r, s)}
        frame, r, _ = rows[-1]  # every part of a level shares its frame and conductor
        moved = point.in_frame(frame)
        coords = [rewrite_in_conductor(v, r.n) for v in (moved.r, moved.s)]
        return None not in coords and row_keys(*(stack([v], r.n) for v in coords))[0] in self._keys

    def __repr__(self):
        flag = ", truncated" if self.truncated else ""
        return f"LevelSet(level={self.level}, points={self._size}{flag})"


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
    cap = point_cap if point_cap is not None else math.inf
    frame, n, table = u.frame, u.working_conductor, u.p_table

    seed = stack([CyclotomicReal.from_rational(c, n) for c in (0, 1)], n)
    ids = {key: i for i, key in enumerate(row_keys(seed))}  # coordinate row key -> id
    seen = {(i, i) for i in ids.values()}  # every point so far, as a pair of ids
    levels = [LevelSet._grown(0, None, (frame, seed, seed), False)]

    for level in range(1, k_max + 1):
        parts = levels[-1].row_batches()
        r_all, s_all = (concat([part[c] for part in parts], n) for c in (1, 2))
        # one invariant value per line actually present at this level, in first-seen order
        line_values: dict[Angle, Batch] = {}
        for g in u.slopes:
            values = line_value(r_all, s_all, table.get(g))
            line_values[g] = values.take(distinct_rows(values)[0])

        new_r, new_s = [], []
        truncated = len(seen) >= cap
        for g, d in itertools.combinations(u.slopes, 2):
            first_lines, second_lines = line_values[g], line_values[d]
            p1 = table.get(g)
            inverse = None if p1 is None else _inverse_p_gap(frame, g, d)
            lines, width = len(first_lines.den), len(second_lines.den)
            i = 0
            while i < lines and not truncated:
                # as many rows of the grid as cannot pass the cap, at least one
                height = max(1, min((cap - len(seen)) // width, _BLOCK // width))
                cells = np.arange(min(height, lines - i) * width)
                r, s = meet(first_lines.take(i + cells // width), second_lines.take(cells % width),
                            p1, table[d], inverse)
                i += len(cells) // width
                fresh = []
                for j, (x, y) in enumerate(zip(row_keys(r), row_keys(s))):
                    point = ids.setdefault(x, len(ids)), ids.setdefault(y, len(ids))
                    if point not in seen:
                        seen.add(point)
                        fresh.append(j)
                        if len(seen) >= cap:
                            truncated = True
                            break
                if fresh:
                    new_r.append(r.take(fresh))
                    new_s.append(s.take(fresh))
        rows = (frame, concat(new_r, n), concat(new_s, n))
        levels.append(LevelSet._grown(level, levels[-1], rows, truncated))
    return levels

