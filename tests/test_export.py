import csv
import io
import json
import time
from fractions import Fraction

import pytest

from origami_rings import cyclotomic, export
from origami_rings.angles import Angle
from origami_rings.construction import LevelSet, generate
from origami_rings.cyclotomic import CyclotomicReal, cos_of, euler_phi
from origami_rings.export import (
    csv_text,
    from_json_document,
    indented_json,
    json_text,
    text_table,
    to_json_document,
)
from origami_rings.geometry import Frame, PlanePoint


def test_point_records_tag_birth_level(triangle):
    levels = generate(triangle, 2)
    doc = to_json_document(None, levels)
    records = doc["points"]
    assert len(records) == 8
    assert sorted(r["level"] for r in records) == [0, 0, 1, 1, 2, 2, 2, 2]
    # every coordinate on the one conductor of the whole document
    assert {len(r[key]) for r in records for key in "rs"} == {euler_phi(doc["conductor"])}


def test_levels_without_points_export_no_rows():
    levels = [LevelSet(0, [], False)]
    assert csv_text(levels) == "level,re,im,conductor,r,s\r\n"
    assert text_table(levels).endswith("\n0 points")
    doc = to_json_document(None, levels)
    assert (doc["conductor"], doc["points"]) == (1, [])


def test_json_document_shape(four_slopes):
    levels = generate(four_slopes, 1)
    doc = to_json_document(four_slopes, levels)
    assert doc["schema"] == 1
    assert doc["kind"] == "origami-points"
    assert doc["k_max"] == 1
    assert doc["truncated"] is False
    assert doc["slopes"] == ["0", "pi/4", "pi/3", "2pi/3"]
    assert len(doc["points"]) == 8
    json.dumps(doc)  # must be serializable as-is


def test_json_round_trip_is_exact(four_slopes):
    levels = generate(four_slopes, 2)
    doc = json.loads(json_text(four_slopes, levels))
    back_u, back_levels = from_json_document(doc)
    assert back_u == four_slopes
    assert (back_u.alpha, back_u.beta) == (four_slopes.alpha, four_slopes.beta)
    assert [len(l) for l in back_levels] == [len(l) for l in levels]
    for orig, rebuilt in zip(levels, back_levels):
        assert set(orig.points) == set(rebuilt.points)


def test_from_json_document_rejects_other_schemas(triangle):
    doc = to_json_document(triangle, generate(triangle, 1))
    doc["schema"] = 99
    with pytest.raises(ValueError):
        from_json_document(doc)
    doc["schema"] = 1
    doc["kind"] = "something-else"
    with pytest.raises(ValueError):
        from_json_document(doc)


def test_csv_shape(triangle):
    text = csv_text(generate(triangle, 1), precision=6)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["level", "re", "im", "conductor", "r", "s"]
    assert len(rows) == 5
    # exact coefficient vectors ride along, semicolon-joined
    assert all(";" in row[4] or "/" not in row[4] for row in rows[1:])
    apex = [row for row in rows[1:] if row[2].startswith("0.866")]
    assert len(apex) == 1


def test_text_table(triangle):
    table = text_table(generate(triangle, 1), precision=6)
    lines = table.splitlines()
    assert lines[0].split() == ["level", "re", "im"]
    assert lines[-1].startswith("4 points")


def test_precision_controls_decimals(triangle):
    doc = to_json_document(triangle, generate(triangle, 1), precision=4)
    ims = {pt["im"] for pt in doc["points"]}
    assert "0.8660" in ims


@pytest.mark.parametrize("cap, k_max", [(2, 2), (8, 3), (20, 3)])
def test_round_trip_keeps_truncation_flags(pentagon, cap, k_max):
    # a level reached after the cap is truncated too, even when it adds
    # no point of its own
    levels = generate(pentagon, k_max, point_cap=cap)
    _, back = from_json_document(to_json_document(pentagon, levels))
    assert [l.truncated for l in back] == [l.truncated for l in levels]


# one list object held many times, as the export's coefficient lists are
_SHARED = ["1/2", "-3", "0"]


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}], "d": [{"e": []}]},
        [[[]], [{}]],
        "",
        'quote " backslash \\ slash /',
        "controls \x00\x01\x1f\t\n\r\b\f\x7f",
        "non-ASCII \u00e9 \u00df \u6f22 \U0001f600 \u2028",
        ["plain", 'q"', "b\\", "\u00e9", "\n"],
        True,
        False,
        None,
        0,
        -(2**70),
        -0.0,
        1e-7,
        1.5e300,
        float("inf"),
        float("-inf"),
        float("nan"),
        {"mixed": [1, "a", None, True, False, -0.0, 1e-7, ["x", 2], {"k": ("v",)}]},
        ("tuple", ["of", ("nested", ())]),
        {"points": [{"r": _SHARED, "s": _SHARED} for _ in range(3)]},
        # one list at two depths: the indent of its text differs
        {"a": _SHARED, "b": {"c": _SHARED, "d": [_SHARED, [_SHARED]]}, "e": _SHARED},
        [tuple(_SHARED), _SHARED, {"f": tuple(_SHARED)}],
        [{}, {"a": ()}, {"b": [], "c": {}}, [(), [], {}]],
        [{"x": 1, "y": "z"}, {"y": [1, {"z": None}], "w": [{"v": []}]}],
        # flat dicts, whose key fragments are cached per key tuple and depth
        {"%s": 1, 'q"': "a", "b\\": None, "\u00e9 \u6f22": True, "": -0.5},
        [{"%d": k, "": "x", "\u00df": [str(k)]} for k in range(3)] + [{"": "y", "%d": 3}],
        {"k": {"k": {"k": 1}}, "": {"": {"": ""}}},
        # one string list at two depths, in flat dicts and in lists
        [{"r": _SHARED, "s": _SHARED}, {"p": {"r": _SHARED}}, [_SHARED, {"s": _SHARED}]],
        # empty dicts and lists as the values of flat dicts and in lists
        {"a": {}, "b": [], "c": (), "d": ""},
        [{"a": {}, "b": []}, {"a": {}, "b": []}, {}, [], [{}], [[]]],
        # the membership witness shape: a list of dicts holding an int list
        {"witness": {"generators": ["p"], "numerator": [
            {"coefficient": "8", "exponents": [0]},
            {"coefficient": "-40", "exponents": [1, 2]},
            {"coefficient": "1/3", "exponents": []},
        ], "denominator": {"exponent": 2, "factors": [3, -1]}}},
    ],
)
def test_indented_json_is_json_dumps_with_indent_2(value):
    assert indented_json(value) == json.dumps(value, indent=2)


def test_indented_json_refuses_a_set_as_json_dumps_does():
    message = "Object of type set is not JSON serializable"
    for write in (json.dumps, indented_json):
        with pytest.raises(TypeError, match=message):
            write({"a": [1, {2}]})


def test_equal_coordinates_are_written_once_and_shared(pentagon, monkeypatch):
    levels = generate(pentagon, 3)
    calls = []
    ratio_text = cyclotomic._ratio_text

    def counted(num, den):
        calls.append((num, den))
        return ratio_text(num, den)

    monkeypatch.setattr(cyclotomic, "_ratio_text", counted)
    doc = to_json_document(pentagon, levels)
    # 4,186 points: 8,372 coordinates with 1,096 distinct values
    lists = [pt[key] for pt in doc["points"] for key in "rs"]
    assert len(lists) == 8372
    assert len({tuple(l) for l in lists}) == len({id(l) for l in lists}) == 1096
    assert calls and len(calls) == len(set(calls))


def test_each_distinct_cartesian_part_is_rounded_once(pentagon, monkeypatch):
    # the pentagon to level 3 has 4,186 distinct Re values but only 837
    # distinct Im values; equal rows share one enclosure and one rounding
    levels = generate(pentagon, 3)
    calls = []
    decimal_text = cyclotomic._decimal_text

    def counted(*args):
        calls.append(args)
        return decimal_text(*args)

    monkeypatch.setattr(cyclotomic, "_decimal_text", counted)
    records = to_json_document(None, levels)["points"]
    assert len(records) == len({r["re"] for r in records}) == 4186
    assert len({r["im"] for r in records}) == 837
    assert len(calls) == 4186 + 837


def test_point_records_of_mixed_conductors_match_each_point(pentagon):
    # hand-built levels: the frame's unit on conductor 1 beside points of
    # the working field, so one batch is promoted to the shared conductor
    frame = pentagon.frame
    generated = generate(pentagon, 1)[-1].points
    points = [PlanePoint(0, 1, frame), PlanePoint(Fraction(1, 3), -2, frame), *generated]
    levels = [LevelSet(0, points[:2], False), LevelSet(1, points, False)]
    doc = to_json_document(None, levels, precision=9)
    records, conductor = doc["points"], doc["conductor"]
    assert conductor == max(pt.r.conductor for pt in points)
    assert {pt.r.conductor for pt in points} == {1, conductor}
    # the unit (0, 1) is a generated point of level 1 as well: one value on
    # two conductors is one point, written once, at level 0
    distinct = list(dict.fromkeys(points))
    assert len(distinct) == len(points) - 1
    assert [r["level"] for r in records] == [0, 0] + [1] * (len(generated) - 1)
    assert len(records) == len(distinct)
    for record, pt in zip(records, distinct):
        re, im = pt.to_cartesian()
        assert (record["re"], record["im"]) == (re.decimal(9), im.decimal(9))
        assert tuple(record["r"]) == pt.r.to_conductor(conductor).coefficient_strings()
        assert tuple(record["s"]) == pt.s.to_conductor(conductor).coefficient_strings()


def test_json_document_conductor_covers_every_coordinate(pentagon):
    # r conductors 12 and 20: the document needs their lcm 60, not the max
    frame = pentagon.frame
    points = [PlanePoint(cos_of(Angle(1, 6)), 0, frame), PlanePoint(cos_of(Angle(1, 5)), 1, frame)]
    doc = json.loads(json_text(pentagon, [LevelSet(0, points, False)]))
    assert doc["conductor"] == 60
    _, back = from_json_document(doc)
    assert back[0].points == tuple(points)


def test_point_records_keep_points_of_other_frames(pentagon):
    # (0, 1) in the frame (a, b) and in (b, a) are two points: both are
    # exported, each written in the frame of the first point
    a, b = pentagon.alpha, pentagon.beta
    points = [PlanePoint(0, 1, Frame(a, b)), PlanePoint(0, 1, Frame(b, a))]
    assert points[0] != points[1]
    doc = to_json_document(None, [LevelSet(0, points, False)], precision=9)
    records, conductor = doc["points"], doc["conductor"]
    assert len(records) == 2
    for record, pt in zip(records, points):
        re, im = pt.to_cartesian()
        assert (record["re"], record["im"]) == (re.decimal(9), im.decimal(9))
        moved = pt.in_frame(points[0].frame)
        assert tuple(record["r"]) == moved.r.to_conductor(conductor).coefficient_strings()
        assert tuple(record["s"]) == moved.s.to_conductor(conductor).coefficient_strings()
    _, back = from_json_document(to_json_document(pentagon, [LevelSet(0, points, False)]))
    assert back[0].points == tuple(points)


def test_json_document_writes_points_in_the_frame_it_names(pentagon):
    # points in the frame (pi/4, pi/3) of a set whose frame is (pi/3, pi/4)
    frame = Frame(pentagon.beta, pentagon.alpha)
    assert frame != pentagon.frame
    points = [PlanePoint(0, 1, frame), PlanePoint(1, 1, frame)]
    _, back = from_json_document(to_json_document(pentagon, [LevelSet(0, points, False)]))
    assert back[0].points == tuple(points)


def test_json_reader_reads_each_coordinate_once_into_chained_rows(pentagon, monkeypatch):
    # the level-3 document's 8,372 coordinates hold 1,096 distinct values
    levels = generate(pentagon, 3)
    doc = json.loads(json_text(pentagon, levels))
    calls, from_coeffs = [], CyclotomicReal.from_coeffs

    def counted(cls, conductor, coeffs):
        calls.append(coeffs)
        return from_coeffs(conductor, coeffs)

    monkeypatch.setattr(CyclotomicReal, "from_coeffs", classmethod(counted))
    _, back = from_json_document(doc)
    assert len(calls) == 1096
    assert [len(level) for level in back] == [2, 8, 88, 4186]
    for orig, rebuilt in zip(levels, back):
        # the last rows of a level are its births, as in a generated level
        (_, *born), (frame, *rows) = orig.row_batches()[-1], rebuilt.row_batches()[-1]
        assert frame == pentagon.frame
        assert [(b.n, b.rows()) for b in rows] == [(b.n, b.rows()) for b in born]
        assert rebuilt.points == orig.points


def test_json_reader_parses_each_coefficient_string_once(pentagon, monkeypatch):
    levels = generate(pentagon, 2)
    doc = json.loads(json_text(pentagon, levels))
    strings = {c for point in doc["points"] for key in "rs" for c in point[key]}
    parsed = []

    def counted(text):
        parsed.append(text)
        return Fraction(text)

    monkeypatch.setattr(export, "Fraction", counted)
    _, back = from_json_document(doc)
    assert sorted(parsed) == sorted(strings)
    assert [level.points for level in back] == [level.points for level in levels]


def test_from_json_document_rejects_a_huge_conductor_at_once(triangle):
    # phi(n) >= sqrt(n/2): the length of a coefficient list bounds the
    # conductor, so 10**18 + 9 is refused before any factoring
    doc = to_json_document(triangle, generate(triangle, 1))
    doc["conductor"] = 10**18 + 9
    start = time.process_time()
    with pytest.raises(ValueError, match="coefficients"):
        from_json_document(doc)
    assert time.process_time() - start < 1
    for conductor in (0, -3):
        with pytest.raises(ValueError, match="positive integer"):
            CyclotomicReal.from_coeffs(conductor, ["1"])


def _spoil_point(doc, **changes):
    doc["points"][-1].update(changes)
    return doc


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda doc: _spoil_point(doc, r=doc["points"][-1]["r"][:-1]), "coefficients"),
        (lambda doc: _spoil_point(doc, level=-1), "outside"),
        (lambda doc: _spoil_point(doc, level=doc["k_max"] + 1), "outside"),
        (lambda doc: _spoil_point(doc, s=["1/0"] + doc["points"][-1]["s"][1:]), "zero denominator"),
        # what to_json_document(None, levels) writes
        (lambda doc: [doc.pop(key) for key in ("slopes", "alpha", "beta")], "no slope set"),
        (lambda doc: doc.pop("conductor"), "document has no 'conductor'"),
        (lambda doc: doc.pop("points"), "document has no 'points'"),
        (lambda doc: doc["points"][-1].pop("level"), r"point \d+ has no 'level'"),
        (lambda doc: doc["points"][-1].pop("r"), r"point \d+ has no 'r'"),
        (lambda doc: doc.update(conductor=0), "conductor must be a positive integer"),
        (lambda doc: doc.update(conductor=-3), "conductor must be a positive integer"),
    ],
    ids=["short-vector", "level-below-0", "level-above-k-max", "zero-denominator", "no-slopes",
         "no-conductor", "no-points", "point-without-level", "point-without-r",
         "conductor-0", "conductor-negative"],
)
def test_from_json_document_rejects_malformed_input(triangle, spoil, message):
    levels = generate(triangle, 1)
    doc = to_json_document(triangle, levels)
    from_json_document(doc)  # the unspoilt document reads back
    spoil(doc)
    if message == "no slope set":
        assert doc == to_json_document(None, levels)
    with pytest.raises(ValueError, match=message):
        from_json_document(doc)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda doc: {**doc, "points": 5},
        lambda doc: {**doc, "points": [*doc["points"], 5]},
        lambda doc: _spoil_point(doc, r=5),
        lambda doc: _spoil_point(doc, s=[None] + doc["points"][-1]["s"][1:]),
        lambda doc: _spoil_point(doc, level=None),
        lambda doc: {**doc, "k_max": None},
        lambda doc: {**doc, "slopes": [0, 1, 2]},
        lambda doc: {**doc, "alpha": 5},
        lambda doc: [doc],
        lambda doc: _spoil_point(doc, level=1.9),
        lambda doc: _spoil_point(doc, level="1"),
        lambda doc: _spoil_point(doc, level=True),
        lambda doc: {**doc, "k_max": 1.5},
        lambda doc: {**doc, "conductor": str(doc["conductor"])},
        lambda doc: {**doc, "schema": True},
        lambda doc: {**doc, "schema": 1.0},
        lambda doc: {**doc, "truncated": "no"},
        lambda doc: _spoil_point(doc, r="0" * len(doc["points"][-1]["r"])),
        lambda doc: _spoil_point(doc, s=[1.5] + doc["points"][-1]["s"][1:]),
        lambda doc: _spoil_point(doc, s=[True] + doc["points"][-1]["s"][1:]),
    ],
    ids=["points-number", "point-number", "r-number", "coefficient-null", "level-null",
         "k-max-null", "slopes-numbers", "alpha-number", "top-level-list", "level-float",
         "level-string", "level-bool", "k-max-float", "conductor-string", "schema-bool",
         "schema-float", "truncated-string", "r-string", "coefficient-number",
         "coefficient-bool"],
)
def test_from_json_document_rejects_values_of_the_wrong_type(triangle, spoil):
    # a number, string, list or null where the schema has another type
    # is a malformed document too, not a TypeError or AttributeError, and
    # not a value coerced to the right type
    doc = to_json_document(triangle, generate(triangle, 1))
    with pytest.raises(ValueError, match="malformed document"):
        from_json_document(spoil(doc))
