"""Serialization of generated point sets.

Points are exported once each, tagged with the first level that
produced them, as both a certified decimal approximation and the exact
coefficient vectors of their two coordinates.  The JSON document
(schema 1) round-trips: parsing it back yields PlanePoints equal to the
originals under exact comparison.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .angles import Angle
from .construction import LevelSet
from .cyclotomic import CyclotomicReal, batch_add, batch_mul, batch_sub, stack
from .geometry import PlanePoint
from .slopes import SlopeSet

SCHEMA_VERSION = 1
DEFAULT_PRECISION = 12


@dataclass(frozen=True)
class PointRecord:
    """One exported point: decimals for reading, vectors for exactness."""

    level: int
    re: str
    im: str
    conductor: int
    r_coeffs: tuple[str, ...]
    s_coeffs: tuple[str, ...]


def _cartesian_parts(points: Sequence[PlanePoint]) -> list[tuple]:
    """(Re, Im) of each point as PlanePoint.to_cartesian gives them, batched."""
    groups: dict[tuple, list[int]] = {}
    for i, pt in enumerate(points):
        n = math.lcm(pt.r.conductor, pt.s.conductor)
        groups.setdefault((pt.frame, n), []).append(i)
    parts = {}
    for (frame, n), index in groups.items():
        r = stack([points[i].r.to_conductor(n) for i in index], n)
        s = stack([points[i].s.to_conductor(n) for i in index], n)
        unit_re, unit_im = frame.unit_parts()
        # r + (s - r) unit_re, written so both products land on its conductor
        re = batch_add(batch_mul(r, 1 - unit_re), batch_mul(s, unit_re))
        im = batch_mul(batch_sub(s, r), unit_im)
        parts.update(zip(index, zip(re.values(), im.values())))
    return [parts[i] for i in range(len(points))]


def point_records(
    levels: Sequence[LevelSet], precision: int = DEFAULT_PRECISION
) -> list[PointRecord]:
    """Flatten levels into one record per point at its birth level."""
    births: dict[tuple, tuple[int, PlanePoint]] = {}
    conductor = 1
    for level in levels:
        for pt in level.points:
            conductor = max(conductor, pt.r.conductor)
            key = (pt.r.conductor, pt.r._num, pt.r._den, pt.s._num, pt.s._den)
            births.setdefault(key, (level.level, pt))
    points = [pt for _, pt in births.values()]
    return [
        PointRecord(
            level=level,
            re=re.decimal(precision),
            im=im.decimal(precision),
            conductor=conductor,
            r_coeffs=pt.r.to_conductor(conductor).coefficient_strings(),
            s_coeffs=pt.s.to_conductor(conductor).coefficient_strings(),
        )
        for (level, pt), (re, im) in zip(births.values(), _cartesian_parts(points))
    ]


def to_json_document(
    u: Optional[SlopeSet],
    levels: Sequence[LevelSet],
    precision: int = DEFAULT_PRECISION,
) -> dict:
    records = point_records(levels, precision)
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "origami-points",
        "precision": precision,
        "k_max": max((l.level for l in levels), default=0),
        "truncated": any(l.truncated for l in levels),
        "conductor": records[0].conductor if records else 1,
        "points": [
            {
                "level": r.level,
                "re": r.re,
                "im": r.im,
                "r": list(r.r_coeffs),
                "s": list(r.s_coeffs),
            }
            for r in records
        ],
    }
    if u is not None:
        doc["slopes"] = [str(s) for s in u.slopes]
        doc["alpha"] = str(u.alpha)
        doc["beta"] = str(u.beta)
    return doc


def from_json_document(doc: dict) -> tuple[SlopeSet, list[LevelSet]]:
    """Rebuild the slope set and exact cumulative levels from schema 1."""
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema: {doc.get('schema')!r}")
    if doc.get("kind") != "origami-points":
        raise ValueError(f"not a point-set document: {doc.get('kind')!r}")
    u = SlopeSet(
        [Angle.parse(s) for s in doc["slopes"]],
        alpha=Angle.parse(doc["alpha"]),
        beta=Angle.parse(doc["beta"]),
    )
    conductor = int(doc["conductor"])
    by_level: dict[int, list[PlanePoint]] = {}
    for entry in doc["points"]:
        r = CyclotomicReal.from_coeffs(
            conductor, [Fraction(c) for c in entry["r"]]
        )
        s = CyclotomicReal.from_coeffs(
            conductor, [Fraction(c) for c in entry["s"]]
        )
        by_level.setdefault(int(entry["level"]), []).append(
            PlanePoint(r, s, u.frame)
        )
    truncated = bool(doc.get("truncated", False))
    levels = []
    cumulative: list[PlanePoint] = []
    for k in range(int(doc.get("k_max", max(by_level, default=0))) + 1):
        cumulative = cumulative + by_level.get(k, [])
        # the cap, once hit, truncates every later level too
        cut = truncated and k >= max([1, *by_level])
        levels.append(LevelSet(k, list(cumulative), cut))
    return u, levels


def json_text(
    u: Optional[SlopeSet],
    levels: Sequence[LevelSet],
    precision: int = DEFAULT_PRECISION,
) -> str:
    return json.dumps(to_json_document(u, levels, precision), indent=2)


CSV_COLUMNS = ["level", "re", "im", "conductor", "r", "s"]


def csv_text(
    levels: Sequence[LevelSet], precision: int = DEFAULT_PRECISION
) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for r in point_records(levels, precision):
        writer.writerow(
            [
                r.level,
                r.re,
                r.im,
                r.conductor,
                ";".join(r.r_coeffs),
                ";".join(r.s_coeffs),
            ]
        )
    return out.getvalue()


def text_table(
    levels: Sequence[LevelSet], precision: int = DEFAULT_PRECISION
) -> str:
    records = point_records(levels, precision)
    width = precision + 8
    lines = [f"{'level':>5}  {'re':>{width}}  {'im':>{width}}"]
    for r in records:
        lines.append(f"{r.level:>5}  {r.re:>{width}}  {r.im:>{width}}")
    total = len(records)
    flag = " (truncated)" if any(l.truncated for l in levels) else ""
    lines.append(f"{total} points{flag}")
    return "\n".join(lines)
