"""Serialization of generated point sets.

Points are exported once each, in the frame of the slope set when the
document names one and else in the frame of the first point, tagged
with the first level that produced them, as both a certified decimal
approximation of geometry.cartesian and the exact coefficient vectors of
their two coordinates.  Every export reads one set of columns
(_point_columns) made from the levels' integer rows
(LevelSet.row_batches), rows of another frame reframed as Batches, so an
export builds no PlanePoint and no per-point object.  The JSON, CSV and
text writers read the columns directly, each distinct coordinate's
strings once.  The JSON document (schema 1) round-trips: it is read back
as rows, each distinct coefficient list once, into levels whose points
equal the originals under exact comparison, and a malformed one raises
ValueError.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .angles import Angle
from .construction import LevelSet, distinct_rows
from .cyclotomic import CyclotomicReal, concat, stack
from .geometry import Frame, cartesian, reframe
from .slopes import SlopeSet

SCHEMA_VERSION = 1
DEFAULT_PRECISION = 12


def _point_columns(levels: Sequence[LevelSet], precision: int, frame: Optional[Frame]) -> tuple:
    """The points of levels as columns (level, re, im, conductor, strings, r,
    s): one entry a point in level, re, im, r and s, in birth order, each
    point in frame, by default the frame of the first point; r and s index
    strings, the coefficient strings of each distinct coordinate, on the one
    conductor.

    One keyed pass reads the levels' rows (LevelSet.row_batches), each
    batch once, reframed into frame, on the lcm of their conductors: every
    coordinate, r or s, gets an id by the exact key of its row
    (construction.row_keys), a point is the pair of its coordinates' ids,
    and its first row is its birth.  Each distinct coordinate is written
    once; the points' Cartesian parts (Re, Im) and their decimals come from
    one batch.
    """
    segments = {}  # id -> the level and rows (frame, r, s) of each batch
    for level in levels:
        for rows in level.row_batches():
            if len(rows[1].den):
                segments.setdefault(id(rows), (level.level, rows))
    if not segments:
        return [], [], [], 1, [], [], []
    frame = frame or next(iter(segments.values()))[1][0]
    coords = [reframe(r, s, old, frame) for _, (old, r, s) in segments.values()]
    both = concat([pair[c] for c in (0, 1) for pair in coords])  # every r, then every s
    size = len(both.den) // 2
    distinct, coord = distinct_rows(both)
    r_ids, s_ids = coord[:size], coord[size:]
    # each point's first row, the row of its birth, in the order of the rows
    births = np.sort(np.unique(r_ids * len(distinct) + s_ids, return_index=True)[1])
    born = np.repeat([level for level, _ in segments.values()], [len(r.den) for r, _ in coords])
    r_ids, s_ids = r_ids[births], s_ids[births]
    values = both.take(distinct)
    re, im = cartesian(values.take(r_ids), values.take(s_ids), frame)
    return (born[births].tolist(), re.decimals(precision), im.decimals(precision), both.n,
            values.coefficient_strings(), r_ids.tolist(), s_ids.tolist())


def to_json_document(
    u: Optional[SlopeSet],
    levels: Sequence[LevelSet],
    precision: int = DEFAULT_PRECISION,
) -> dict:
    """The schema-1 document of levels; points with an equal coordinate
    share one list object for it."""
    level, re, im, conductor, strings, r, s = _point_columns(
        levels, precision, u.frame if u is not None else None)
    lists = list(map(list, strings))
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "origami-points",
        "precision": precision,
        "k_max": max((l.level for l in levels), default=0),
        "truncated": any(l.truncated for l in levels),
        "conductor": conductor,
        "points": [
            {"level": k, "re": x, "im": y, "r": lists[a], "s": lists[b]}
            for k, x, y, a, b in zip(level, re, im, r, s)
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
    here strings go through json's C escaper and fragments are appended to
    one list that is joined once.  A list of strings is one text, memoized
    per (depth, id), so a list the document holds many times is written
    once per depth and its text appended by reference.  A dict is written
    from its key fragments, cached per (key tuple, depth), so the points of
    an export share one set.
    """
    parts: list[str] = []
    _write(doc, "\n", parts.append, collections.defaultdict(dict), {})
    return "".join(parts)


def _write(value, pad: str, append, lists: dict, keys: dict) -> None:
    """Append value as indented_json writes it, pad being its line's newline
    and indent.  lists maps pad to the texts at that depth of lists of
    strings, by id: the document outlives the call, so no id is reused.
    keys maps (key tuple, pad) to the fragment that opens each entry."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            append("{}")
            return
        names = tuple(value)
        heads = keys.get((names, pad))
        if heads is None:
            seps = ["{" + inner] + ["," + inner] * (len(names) - 1)
            heads = keys[names, pad] = [f"{sep}{_escape(k)}: " for sep, k in zip(seps, names)]
        known = lists[inner]
        for head, v in zip(heads, value.values()):
            append(head)
            if (scalar := _SCALARS.get(type(v))) is not None:
                append(scalar(v))
            elif (text := known.get(id(v))) is not None:
                append(text)
            else:
                _write(v, inner, append, lists, keys)
        append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        known = lists[pad]
        if (text := known.get(id(value))) is None and set(map(type, value)) == _STR:
            text = known[id(value)] = "[" + inner + ("," + inner).join(map(_escape, value)) + pad + "]"
        if text is not None:
            append(text)
            return
        sep = "[" + inner
        for v in value:
            append(sep)
            _write(v, inner, append, lists, keys)
            sep = "," + inner
        append(pad + "]")
    elif (text := _scalar(value)) is not None:
        append(text)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _scalar(value) -> Optional[str]:
    """The text of a string, number, boolean or None, subclasses included;
    None for anything else."""
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


# the writers of the exact scalar types, looked up before _scalar's checks
_SCALARS = {str: _escape, int: int.__repr__, float: _scalar, bool: _scalar, type(None): _scalar}
_STR = {str}


CSV_COLUMNS = ["level", "re", "im", "conductor", "r", "s"]


def csv_text(
    levels: Sequence[LevelSet], precision: int = DEFAULT_PRECISION
) -> str:
    level, re, im, conductor, strings, r, s = _point_columns(levels, precision, None)
    cells = [";".join(t) for t in strings]  # one cell per distinct coordinate
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(zip(level, re, im, itertools.repeat(conductor),
                         map(cells.__getitem__, r), map(cells.__getitem__, s)))
    return out.getvalue()


def text_table(
    levels: Sequence[LevelSet], precision: int = DEFAULT_PRECISION
) -> str:
    level, re, im, *_ = _point_columns(levels, precision, None)
    width = precision + 8
    lines = [f"{'level':>5}  {'re':>{width}}  {'im':>{width}}"]
    for k, x, y in zip(level, re, im):
        lines.append(f"{k:>5}  {x:>{width}}  {y:>{width}}")
    flag = " (truncated)" if any(l.truncated for l in levels) else ""
    lines.append(f"{len(level)} points{flag}")
    return "\n".join(lines)
