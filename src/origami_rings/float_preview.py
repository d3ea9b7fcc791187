"""Fast floating-point preview of the construction.

The exact generator is the reference; this one trades certainty for
speed, working on complex128 coordinates and collapsing points within
an epsilon grid.  Useful for plotting and for eyeballing growth before
committing to an exact run.  Slopes are plain radians here, folded into
[0, pi), so values that only approximate a rational multiple of pi are
fine.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

DEFAULT_EPS = 1e-9


def _fold(theta: float) -> float:
    folded = math.fmod(theta, math.pi)
    if folded < 0:
        folded += math.pi
    return folded


def _dedup(xs: np.ndarray, ys: np.ndarray, eps: float):
    keys = np.stack(
        [np.round(xs / eps).astype(np.int64), np.round(ys / eps).astype(np.int64)],
        axis=1,
    )
    _, idx = np.unique(keys, axis=0, return_index=True)
    idx.sort()
    return xs[idx], ys[idx]


def generate_float(
    slopes: Sequence[float],
    k_max: int,
    point_cap: int = 50_000,
    eps: float = DEFAULT_EPS,
) -> list[tuple[np.ndarray, bool]]:
    """Approximate levels 0..k_max over slopes given in radians.

    Returns one (points, truncated) pair per level, points as a complex
    array in deterministic order.  Needs finite slopes, at least three
    distinct once folded, including (approximately) the horizontal one,
    and a positive finite eps.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if point_cap < 2:
        raise ValueError("point_cap must be at least 2, the size of level 0")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a positive finite number, got {eps}")
    for t in slopes:
        if not math.isfinite(t):
            raise ValueError(f"slope {t} is not a finite number of radians")
    folded = sorted(
        {0.0 if math.pi - _fold(t) <= eps else _fold(t) for t in slopes}
    )
    merged: list[float] = []
    for t in folded:
        if not merged or t - merged[-1] > eps:
            merged.append(t)
    if len(merged) < 3:
        raise ValueError("need at least three distinct directions")
    if merged[0] > eps:
        raise ValueError("the horizontal direction 0 must be included")
    directions = np.array(merged)
    sines = np.sin(directions)
    cosines = np.cos(directions)

    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 0.0])
    levels = [(xs + 1j * ys, False)]
    for _ in range(k_max):
        # line offsets per direction: constant along each line
        offsets = []
        for i in range(len(directions)):
            c = ys * cosines[i] - xs * sines[i]
            _, idx = np.unique(np.round(c / eps).astype(np.int64), return_index=True)
            idx.sort()
            offsets.append(c[idx])
        new_x = [xs]
        new_y = [ys]
        truncated = False
        total = len(xs)
        for i in range(len(directions)):
            if truncated:
                break
            for j in range(i + 1, len(directions)):
                det = math.sin(directions[j] - directions[i])
                k1, k2 = np.meshgrid(offsets[i], offsets[j], indexing="ij")
                k1 = k1.ravel()
                k2 = k2.ravel()
                x = (cosines[j] * k1 - cosines[i] * k2) / det
                y = (sines[j] * k1 - sines[i] * k2) / det
                new_x.append(x)
                new_y.append(y)
                total += len(x)
                if total > 4 * point_cap:
                    truncated = True
                    break
        xs = np.concatenate(new_x)
        ys = np.concatenate(new_y)
        xs, ys = _dedup(xs, ys, eps)
        if len(xs) > point_cap:
            xs, ys = xs[:point_cap], ys[:point_cap]
            truncated = True
        levels.append((xs + 1j * ys, truncated))
    return levels
