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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .angles import Angle
from .construction import LevelSet
from .cyclotomic import CyclotomicReal
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


def _coeff_strings(value: CyclotomicReal, conductor: int) -> tuple[str, ...]:
    return value.to_conductor(conductor).coefficient_strings()


def point_records(
    levels: Sequence[LevelSet], precision: int = DEFAULT_PRECISION
) -> list[PointRecord]:
    """Flatten levels into one record per point at its birth level."""
    records = []
    seen = set()
    conductor = 1
    for level in levels:
        for pt in level.points:
            conductor = max(conductor, pt.r.conductor)
    for level in levels:
        for pt in level.points:
            key = (
                pt.r.conductor,
                pt.r._num,
                pt.r._den,
                pt.s._num,
                pt.s._den,
            )
            if key in seen:
                continue
            seen.add(key)
            re, im = pt.to_cartesian()
            records.append(
                PointRecord(
                    level=level.level,
                    re=re.decimal(precision),
                    im=im.decimal(precision),
                    conductor=conductor,
                    r_coeffs=_coeff_strings(pt.r, conductor),
                    s_coeffs=_coeff_strings(pt.s, conductor),
                )
            )
    return records


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
        levels.append(LevelSet(k, list(cumulative), truncated and k == max(by_level)))
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
