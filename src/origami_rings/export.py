"""Serialization of generated point sets.

Points are exported once each, in the frame of the slope set when the
document names one and else in the frame of the first point, tagged
with the first level that produced them, as both a certified decimal
approximation of geometry.cartesian and the exact coefficient vectors of
their two coordinates.  The records come from the levels' integer rows
(LevelSet.row_batches), rows of another frame reframed as Batches, so an
export builds no PlanePoint.  The JSON document (schema 1) round-trips:
it is read back as rows, each distinct coefficient list once, into
levels whose points equal the originals under exact comparison, and a
malformed one raises ValueError.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .angles import Angle
from .construction import LevelSet, distinct_rows
from .cyclotomic import CyclotomicReal, concat, stack
from .geometry import Frame, cartesian, reframe
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


def point_records(
    levels: Sequence[LevelSet], precision: int = DEFAULT_PRECISION, frame: Optional[Frame] = None
) -> list[PointRecord]:
    """Flatten levels into one record per point at its birth level, each in
    frame, by default the frame of the first point.

    One keyed pass reads the levels' rows (LevelSet.row_batches), each
    batch once, reframed into frame, on the lcm of their conductors: every
    coordinate, r or s, gets an id by the exact key of its row
    (construction.row_keys), a point is the pair of its coordinates' ids,
    and its first row is its birth.
    Each distinct coordinate is written once, and records with an equal
    coordinate share its strings tuple; the points' Cartesian parts (Re,
    Im) and their decimals come from one batch.
    """
    segments, born = {}, []  # id -> (frame, r, s), and each one's level
    for level in levels:
        for rows in level.row_batches():
            if id(rows) not in segments and len(rows[1].den):
                segments[id(rows)] = rows
                born.append(level.level)
    if not segments:
        return []
    frame = frame or next(iter(segments.values()))[0]
    coords = [reframe(r, s, old, frame) for old, r, s in segments.values()]
    both = concat([pair[c] for c in (0, 1) for pair in coords])  # every r, then every s
    conductor, size = both.n, len(both.den) // 2
    distinct, coord = distinct_rows(both)
    r_ids, s_ids = coord[:size], coord[size:]
    first: dict = {}  # each point -> its first row, the row of its birth
    for i, point in enumerate(zip(r_ids.tolist(), s_ids.tolist())):
        first.setdefault(point, i)
    births = list(first.values())
    r_ids, s_ids = r_ids[births], s_ids[births]
    row_level = [level for level, (r, _) in zip(born, coords) for _ in range(len(r.den))]
    values = both.take(distinct)
    re, im = cartesian(values.take(r_ids), values.take(s_ids), frame)
    strings = values.coefficient_strings()
    columns = zip([row_level[i] for i in births], re.decimals(precision), im.decimals(precision),
                  r_ids.tolist(), s_ids.tolist())
    return [
        PointRecord(level, re_text, im_text, conductor, strings[r], strings[s])
        for level, re_text, im_text, r, s in columns
    ]


def _distinct_strings(records: Sequence[PointRecord]) -> list[tuple[str, ...]]:
    """The strings tuples of the records, each once (point_records shares
    one tuple among the records with an equal coordinate)."""
    return list({id(t): t for r in records for t in (r.r_coeffs, r.s_coeffs)}.values())


def to_json_document(
    u: Optional[SlopeSet],
    levels: Sequence[LevelSet],
    precision: int = DEFAULT_PRECISION,
) -> dict:
    """The schema-1 document of levels; points with an equal coordinate
    share one list object for it."""
    records = point_records(levels, precision, u.frame if u is not None else None)
    # one list per distinct coordinate, keyed by the id of its strings tuple
    lists = {id(t): list(t) for t in _distinct_strings(records)}
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
                "r": lists[id(r.r_coeffs)],
                "s": lists[id(r.s_coeffs)],
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
    """Rebuild the slope set and exact cumulative levels from schema 1, each
    distinct coefficient string parsed once, each distinct coefficient list
    read once and each level's births stacked and chained as generate
    chains them; a malformed document raises ValueError."""
    try:
        if _integer(doc.get("schema"), "schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema: {doc.get('schema')!r}")
        if doc.get("kind") != "origami-points":
            raise ValueError(f"not a point-set document: {doc.get('kind')!r}")
        if not {"slopes", "alpha", "beta"} <= doc.keys():
            raise ValueError("document has no slope set (slopes, alpha, beta)")
        alpha, beta = Angle.parse(doc["alpha"]), Angle.parse(doc["beta"])
        u = SlopeSet([Angle.parse(s) for s in doc["slopes"]], alpha=alpha, beta=beta)
        _require(doc, ("conductor", "points"), "document")
        conductor = _integer(doc["conductor"], "conductor")
        if conductor < 1:
            raise ValueError(f"conductor must be a positive integer, got {conductor}")
        entries = doc["points"]
        for i, entry in enumerate(entries):
            _require(entry, ("level", "r", "s"), f"point {i}")
            _integer(entry["level"], f"point {i}: level")
        k_max = _integer(doc.get("k_max", max((e["level"] for e in entries), default=0)), "k_max")
        values: dict[tuple, CyclotomicReal] = {}  # coefficient list -> its value
        fraction = lru_cache(maxsize=None)(Fraction)  # each distinct coefficient parsed once
        born: dict[int, tuple[list, list]] = {}  # level -> the r and s of its new points
        for i, entry in enumerate(entries):
            level = entry["level"]
            if not 0 <= level <= k_max:
                raise ValueError(f"point {i}: level {level} is outside 0..{k_max}")
            try:
                for key, column in zip("rs", born.setdefault(level, ([], []))):
                    if not isinstance(entry[key], list):
                        raise TypeError(f"point {i}: {key} must be a list of strings")
                    text = tuple(entry[key])
                    if text not in values:
                        if not all(isinstance(c, str) for c in text):
                            raise TypeError(f"point {i}: {key} must be a list of strings")
                        coeffs = list(map(fraction, text))
                        values[text] = CyclotomicReal.from_coeffs(conductor, coeffs)
                    column.append(values[text])
            except ZeroDivisionError:
                raise ValueError(f"point {i}: a coefficient has a zero denominator") from None
        truncated = doc.get("truncated", False)
        if not isinstance(truncated, bool):
            raise TypeError(f"truncated must be true or false, got {truncated!r}")
    except (TypeError, AttributeError) as exc:  # a value of the wrong type
        raise ValueError(f"malformed document: {exc}") from None
    n = conductor if values else 1  # no coefficient list bounds an empty document's conductor
    levels: list[LevelSet] = []
    for k in range(k_max + 1):
        r, s = born.get(k, ([], []))
        # the cap, once hit, truncates every later level too
        cut = truncated and k >= max([1, *born])
        rows = (u.frame, stack(r, n), stack(s, n))
        levels.append(LevelSet._grown(k, levels[-1] if levels else None, rows, cut))
    return u, levels


def _integer(value, where: str) -> int:
    """value if it is an int and not a bool; from_json_document reports the
    TypeError raised otherwise as a malformed document."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{where} must be an integer, got {value!r}")
    return value


def _require(mapping: dict, keys: Sequence[str], where: str) -> None:
    missing = [key for key in keys if key not in mapping]
    if missing:
        raise ValueError(f"{where} has no {missing[0]!r}")


def json_text(
    u: Optional[SlopeSet],
    levels: Sequence[LevelSet],
    precision: int = DEFAULT_PRECISION,
) -> str:
    return indented_json(to_json_document(u, levels, precision))


_escape = json.encoder.encode_basestring_ascii


def indented_json(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte, for a document of dicts
    with str keys, lists, tuples, strings, numbers, booleans and None.

    With an indent CPython's json falls back to its pure-Python encoder;
    here strings go through json's C escaper, fragments are appended to one
    list that is joined once, and a list of strings that the document holds
    more than once at one depth is written once.
    """
    parts: list[str] = []
    _write(doc, "\n", parts, {})
    return "".join(parts)


def _write(value, pad: str, parts: list[str], memo: dict) -> None:
    """Append value as indented_json writes it, pad being its line's newline
    and indent.  memo maps (id, pad) of a list of strings to its text: the
    document outlives the call, so no id is reused, and one list may sit at
    two depths."""
    inner = pad + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for k, v in value.items():
            text = _scalar(v)
            if text is None:
                parts.append(f"{sep}{_escape(k)}: ")
                _write(v, inner, parts, memo)
            else:
                parts.append(f"{sep}{_escape(k)}: {text}")
            sep = "," + inner
        parts.append(pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        if (text := memo.get((id(value), pad))) is not None:
            parts.append(text)
        elif value and set(map(type, value)) == {str}:
            text = memo[id(value), pad] = (
                "[" + inner + ("," + inner).join(map(_escape, value)) + pad + "]")
            parts.append(text)
        else:
            sep = "[" + inner
            for v in value:
                parts.append(sep)
                _write(v, inner, parts, memo)
                sep = "," + inner
            parts.append(pad + "]" if value else "[]")
    elif (text := _scalar(value)) is not None:
        parts.append(text)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _scalar(value) -> Optional[str]:
    """The text of a string, number, boolean or None; None for anything else."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    return None


CSV_COLUMNS = ["level", "re", "im", "conductor", "r", "s"]


def csv_text(
    levels: Sequence[LevelSet], precision: int = DEFAULT_PRECISION
) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    records = point_records(levels, precision)
    cells = {id(t): ";".join(t) for t in _distinct_strings(records)}
    for r in records:
        writer.writerow([r.level, r.re, r.im, r.conductor,
                         cells[id(r.r_coeffs)], cells[id(r.s_coeffs)]])
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
