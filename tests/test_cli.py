import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from origami_rings import cli, cyclotomic, export
from origami_rings.slopes import InvalidSlopeSetError
from origami_rings.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    main,
)

TRIANGLE = "0,pi/3,2pi/3"
PENTAGON = "0,pi/5,pi/4,pi/3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--slopes", TRIANGLE)
    assert code == EXIT_OK
    assert "Discrete" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--slopes", PENTAGON, "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["result"] == "Dense"


def test_ring_text(capsys):
    code, out, _ = run(capsys, "ring", "--slopes", TRIANGLE)
    assert code == EXIT_OK
    assert "Ring" in out.splitlines()[0]
    assert "criterion ratios" in out


def test_ring_json_not_ring(capsys):
    code, out, _ = run(
        capsys, "ring", "--slopes", "0,pi/4,pi/3", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["status"] == "NotRing"
    assert {c["name"] for c in doc["criteria"]} == {
        "integral", "norm-trace", "ratios", "unit-product",
    }


def test_generate_text_and_out_file(capsys, tmp_path):
    target = tmp_path / "points.txt"
    code, out, _ = run(
        capsys, "generate", "--slopes", TRIANGLE, "--levels", "2",
        "--out", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    assert "8 points" in target.read_text()


def test_generate_csv(capsys):
    code, out, _ = run(
        capsys, "generate", "--slopes", TRIANGLE, "--levels", "1",
        "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "level,re,im,conductor,r,s"
    assert len(lines) == 5


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_stdout_carries_the_bytes_of_the_out_file(capsys, tmp_path, fmt):
    # print added a newline after the CSV's closing "\r\n", so csv.reader
    # read a trailing empty row from stdout but not from the file
    argv = ("generate", "--slopes", TRIANGLE, "--levels", "2", "--format", fmt)
    target = tmp_path / "out"
    target.write_bytes(b"old content\n" * 10_000)  # replaced whole
    code, _, _ = run(capsys, *argv, "--out", str(target))
    assert code == EXIT_OK
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.encode() == target.read_bytes()
    assert out.endswith("\n") and not out.endswith("\n\n")
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) == 1 + 8 and all(rows)


def test_generate_json_schema(capsys):
    code, out, _ = run(
        capsys, "generate", "--slopes", TRIANGLE, "--levels", "1",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["kind"] == "origami-points"
    assert len(doc["points"]) == 4


def test_exact_mode_rejects_decimal_slopes(capsys):
    code, _, err = run(capsys, "generate", "--slopes", "0,0.5,1.2")
    assert code == EXIT_ERROR
    assert "--float-preview" in err


def test_float_preview(capsys):
    code, out, _ = run(
        capsys, "generate", "--slopes", "0,0.6283185307,pi/4,pi/3",
        "--levels", "2", "--float-preview",
    )
    assert code == EXIT_OK
    assert "level 2: 88 points" in out


def test_float_preview_json(capsys):
    code, out, _ = run(
        capsys, "generate", "--slopes", "0,pi/4,pi/3", "--levels", "1",
        "--float-preview", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["kind"] == "float-preview"
    assert doc["schema"] == 1
    assert len(doc["levels"]) == 2


def test_float_preview_csv(capsys):
    code, out, _ = run(
        capsys, "generate", "--slopes", "0,pi/4,pi/3", "--levels", "1",
        "--float-preview", "--format", "csv", "--precision", "3",
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "level,re,im",
        "0,0.000,0.000", "0,1.000,0.000",
        "1,0.000,0.000", "1,1.000,0.000", "1,2.366,2.366", "1,-1.366,-2.366",
    ]


def test_member_proven_in(capsys):
    code, out, _ = run(capsys, "member", "sqrt(3)", "--slopes", PENTAGON)
    assert code == EXIT_OK
    assert "ProvenIn" in out
    assert "p: 5, p-1: 4" in out


def test_member_json_witness(capsys):
    code, out, _ = run(
        capsys, "member", "sqrt(3)", "--slopes", PENTAGON, "--format", "json"
    )
    doc = json.loads(out)
    assert doc["verdict"] == "ProvenIn"
    assert doc["witness"]["denominator"] == {"p": 5, "p-1": 4}


def test_member_not_in(capsys):
    code, out, _ = run(capsys, "member", "1/2", "--slopes", TRIANGLE)
    assert code == EXIT_OK
    assert "ProvenNotIn" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_member_value_with_a_leading_minus_goes_last_after_dashes(capsys, fmt):
    # argparse reads "-3/4" as an option, so it goes last, after "--"
    code, out, _ = run(capsys, "member", "--slopes", TRIANGLE, "--format", fmt, "--", "-3/4")
    assert code == EXIT_OK
    if fmt == "json":
        doc = json.loads(out)
        assert (doc["value"], doc["verdict"]) == ("-3/4", "ProvenNotIn")
    else:
        assert out.startswith("-3/4 in M_R({0, pi/3, 2pi/3}): ProvenNotIn\n")


def test_square_root_of_a_large_prime(capsys):
    # its Gauss sum lies at conductor 40028, outside the working field
    code, out, _ = run(capsys, "member", "sqrt(10007)", "--slopes", PENTAGON)
    assert code == EXIT_OK
    assert "ProvenNotIn" in out


def test_member_unknown_exit_code(capsys):
    code, out, _ = run(
        capsys, "member", "sqrt(3)", "--slopes", PENTAGON,
        "--max-den-exp", "1", "--max-num-deg", "2",
    )
    assert code == EXIT_UNKNOWN
    assert "Unknown" in out


def test_member_unknown_json_carries_the_bounds(capsys):
    code, out, _ = run(
        capsys, "member", "sqrt(3)", "--slopes", PENTAGON,
        "--max-den-exp", "0", "--max-num-deg", "1", "--format", "json",
    )
    assert code == EXIT_UNKNOWN
    doc = json.loads(out)
    assert doc["verdict"] == "Unknown"
    assert doc["bounds"] == {"max_den_exp": 0, "max_num_deg": 1}


def test_ring_text_decided_by_criterion_integral(capsys):
    code, out, _ = run(capsys, "ring", "--slopes", "0,pi/4,pi/2,5pi/7")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[:3] == [
        "{0, pi/4, pi/2, 5pi/7} with frame (5pi/7, pi/2): Ring",
        "decided by criterion integral",
        "  criterion integral: Ring",
    ]


def test_member_bad_expression(capsys):
    code, _, err = run(capsys, "member", "sqrt(", "--slopes", TRIANGLE)
    assert code == EXIT_ERROR
    assert "error" in err


@pytest.mark.parametrize("value", ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"],
                         ids=["parentheses", "unary-minuses"])
def test_member_nested_too_deeply_is_one_error_line(capsys, value):
    # "--" keeps argparse from reading the minuses as an option
    code, out, err = run(capsys, "member", "--slopes", PENTAGON, "--", value)
    assert code == EXIT_ERROR and out == ""
    assert err == "error: expression nested too deeply\n"


def test_pvalues(capsys):
    code, out, _ = run(capsys, "pvalues", "--slopes", PENTAGON, "--precision", "6")
    assert code == EXIT_OK
    assert "conductor 120" in out
    assert "1.890529" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["ring"])  # --slopes is required
    assert info.value.code == EXIT_USAGE


def test_subcommands_share_each_option_built_once():
    parser = cli._build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]

    def action(command, dest):
        (found,) = [a for a in commands[command]._actions if a.dest == dest]
        return found

    assert len(commands) == 5
    assert action("ring", "max_den_exp") is action("member", "max_den_exp")
    assert len({id(action(command, "slopes")) for command in commands}) == 1


def test_config_defaults(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"slopes": TRIANGLE, "precision": 4}))
    monkeypatch.setenv("ORIGAMI_RINGS_CONFIG", str(cfg))
    code, out, _ = run(capsys, "pvalues")
    assert code == EXIT_OK
    assert "1.0000" in out and "1.00000" not in out


def test_config_flag_still_wins(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"slopes": TRIANGLE}))
    monkeypatch.setenv("ORIGAMI_RINGS_CONFIG", str(cfg))
    code, out, _ = run(capsys, "classify", "--slopes", PENTAGON)
    assert code == EXIT_OK
    assert "Dense" in out


def test_config_unknown_key(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"slopse": TRIANGLE}))
    monkeypatch.setenv("ORIGAMI_RINGS_CONFIG", str(cfg))
    code, _, err = run(capsys, "classify", "--slopes", TRIANGLE)
    assert code == EXIT_USAGE
    assert "unknown config keys" in err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config"),  # no such file
    ("{slopes", "cannot read config"),
    ("[1, 2]", "must hold a JSON object"),
], ids=["missing", "not-json", "not-an-object"])
def test_config_that_is_not_a_readable_json_object(capsys, tmp_path, monkeypatch, content, message):
    cfg = tmp_path / "config.json"
    if content is not None:
        cfg.write_text(content)
    monkeypatch.setenv("ORIGAMI_RINGS_CONFIG", str(cfg))
    code, out, err = run(capsys, "classify", "--slopes", TRIANGLE)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and message in err


def test_each_config_gets_its_own_cached_parser(capsys, tmp_path, monkeypatch):
    # the parser is cached per config, so a second config in the same
    # process must not see the first one's defaults
    for name, config in (("a", {"slopes": TRIANGLE, "precision": 4}),
                         ("b", {"slopes": PENTAGON, "precision": 6})):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    monkeypatch.setenv("ORIGAMI_RINGS_CONFIG", str(tmp_path / "a.json"))
    first = run(capsys, "pvalues")
    monkeypatch.setenv("ORIGAMI_RINGS_CONFIG", str(tmp_path / "b.json"))
    second = run(capsys, "pvalues")
    monkeypatch.setenv("ORIGAMI_RINGS_CONFIG", str(tmp_path / "a.json"))
    assert run(capsys, "pvalues") == first
    assert first[0] == second[0] == EXIT_OK
    assert "1.0000" in first[1] and "1.00000" not in first[1]
    assert "pi/5" not in first[1]
    assert "p(pi/5) = 1.890529\n" in second[1]
    # a config that fails validation is still refused after a valid one
    (tmp_path / "bad.json").write_text(json.dumps({"precision": 7.5}))
    monkeypatch.setenv("ORIGAMI_RINGS_CONFIG", str(tmp_path / "bad.json"))
    code, out, err = run(capsys, "pvalues", "--slopes", TRIANGLE)
    assert code == EXIT_USAGE and out == "" and "'precision'" in err


@pytest.mark.parametrize(
    "config, argv",
    [
        # each used to crash or, for the string "false", switch the preview on
        ({"precision": 7.5}, ("pvalues", "--slopes", TRIANGLE)),
        ({"slopes": 5}, ("classify",)),
        ({"max_den_exp": None}, ("member", "sqrt(3)", "--slopes", PENTAGON)),
        ({"float_preview": "false"}, ("generate", "--slopes", TRIANGLE, "--levels", "1")),
        # a format outside the subcommand's choices used to print text
        ({"format": "xml"}, ("classify", "--slopes", TRIANGLE)),
        ({"format": "csv"}, ("ring", "--slopes", TRIANGLE)),
    ],
)
def test_config_value_of_the_wrong_type(capsys, tmp_path, monkeypatch, config, argv):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setenv("ORIGAMI_RINGS_CONFIG", str(cfg))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    (key,) = config
    assert err.startswith("error:") and repr(key) in err


def test_config_format_from_the_subcommands_choices(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    monkeypatch.setenv("ORIGAMI_RINGS_CONFIG", str(cfg))
    code, out, _ = run(capsys, "generate", "--slopes", TRIANGLE, "--levels", "1")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "level,re,im,conductor,r,s"


@pytest.mark.parametrize(
    "argv",
    [
        ("ring", "--slopes", "0,pi/3,pi/2", "--out", "{missing}/x.json"),
        ("generate", "--slopes", TRIANGLE, "--levels", "1", "--out", "{directory}"),
        # opened, then the write fails: the error carries no file name
        pytest.param(
            ("generate", "--slopes", TRIANGLE, "--levels", "1", "--out", "/dev/full"),
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
)
def test_out_path_that_cannot_be_written(capsys, tmp_path, argv):
    # used to end in a FileNotFoundError or IsADirectoryError traceback
    paths = {"missing": tmp_path / "missing", "directory": tmp_path}
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith(f"error: cannot write '{argv[-1]}': ")
    assert len(err.splitlines()) == 1


def test_out_to_dev_null(capsys):
    # a character device takes the output like a file
    code, out, err = run(capsys, "classify", "--slopes", TRIANGLE, "--out", os.devnull)
    assert (code, out, err) == (EXIT_OK, "", "")


def _read_64_bytes_and_close(fmt):
    """Run the pentagon's level-3 export to stdout, and close the pipe after
    reading 64 bytes: (exit code, the bytes read, stderr)."""
    argv = ["generate", "--slopes", PENTAGON, "--levels", "3", "--format", fmt]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "origami_rings.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path})
    try:
        head = proc.stdout.read(64)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    return proc.returncode, head, err


def test_closed_stdout_ends_without_a_word():
    # the reader stops after 64 of the export's 4.3 MB: the CLI used to
    # print "error: cannot write 'None': Broken pipe"
    code, head, err = _read_64_bytes_and_close("json")
    assert code == EXIT_ERROR
    assert head.startswith(b'{\n  "schema": 1,')
    assert err == b""


def test_closed_stdout_is_seen_when_the_text_ends_in_a_newline():
    # the CSV ends in "\r\n" already: its last newline still goes in a
    # write of its own, so the closed pipe is seen
    code, head, err = _read_64_bytes_and_close("csv")
    assert code == EXIT_ERROR
    assert head.startswith(b"level,re,im,conductor,r,s\r\n")
    assert err == b""


class _Recording(io.StringIO):
    """A text stream that keeps each string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_emit_writes_slices_then_the_last_newline_alone(monkeypatch, tmp_path):
    # about 3 MiB: no write holds more than 1 MiB, the last one is the
    # final newline alone, and a file gets the same characters as stdout
    text = ("0123456789" * 6 + "abc\n") * 50_000
    for body in (text[:-1], text):
        stream = _Recording()
        monkeypatch.setattr(sys, "stdout", stream)
        cli._emit(body, None)
        assert len(stream.writes) > 3
        assert max(map(len, stream.writes)) <= 1 << 20
        assert stream.writes[-1] == "\n"
        assert stream.getvalue() == text  # one newline, never a second
        cli._emit(body, str(tmp_path / "out.txt"))
        assert (tmp_path / "out.txt").read_bytes() == text.encode()


def test_negative_precision_is_an_error(capsys, monkeypatch):
    # rejected right after parsing, before any of the work is done
    def never(*args, **kwargs):
        raise AssertionError("ran before --precision was checked")

    for name in ("ring_check", "generate", "membership_in_MR"):
        monkeypatch.setattr(cli, name, never)
    for argv in (
        ("pvalues", "--slopes", "0,pi/5,pi/3", "--precision", "-2"),
        ("generate", "--slopes", "0,pi/4,pi/3", "--levels", "1",
         "--float-preview", "--format", "json", "--precision", "-2"),
        ("ring", "--slopes", PENTAGON, "--precision", "-1"),
        ("generate", "--slopes", PENTAGON, "--levels", "3", "--precision", "-1"),
        ("member", "sqrt(3)", "--slopes", PENTAGON, "--precision", "-2"),
        ("classify", "--slopes", PENTAGON, "--precision", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ERROR and out == ""
        assert "digits must be nonnegative" in err


def test_negative_levels_is_an_error(capsys):
    for mode in ((), ("--float-preview",)):
        code, out, err = run(
            capsys, "generate", "--slopes", TRIANGLE, "--levels", "-1", *mode
        )
        assert code == EXIT_ERROR and out == ""
        assert "k_max" in err


@pytest.mark.filterwarnings("error")
def test_float_preview_rejects_nonpositive_eps(capsys):
    code, out, err = run(
        capsys, "generate", "--slopes", TRIANGLE, "--float-preview", "--eps", "0"
    )
    assert code == EXIT_ERROR and out == ""
    assert "eps" in err


@pytest.mark.parametrize("argv, message", [
    (("--slopes", "0,0.5,1,nan"), "slope nan is not a finite number"),
    (("--slopes", "0,0.5,nan"), "slope nan is not a finite number"),
    (("--slopes", "0,0.5,1,inf"), "slope inf is not a finite number"),
    (("--slopes", "0,0.5,1", "--eps", "nan"), "eps must be a positive finite number, got nan"),
    (("--slopes", "0,0.5,1", "--eps", "inf"), "eps must be a positive finite number, got inf"),
    (("--slopes", "0,0.5,one"), "cannot read slope 'one' as radians or a pi fraction"),
])
def test_float_preview_rejects_non_finite_input(capsys, argv, message):
    code, out, err = run(capsys, "generate", "--float-preview", *argv)
    assert code == EXIT_ERROR and out == ""
    assert message in err


def test_point_cap_below_two_is_an_error(capsys):
    # level 0 already holds the two points 0 and 1
    for cap in ("0", "-5"):
        for mode in ((), ("--float-preview",)):
            code, out, err = run(
                capsys, "generate", "--slopes", TRIANGLE, "--levels", "1",
                "--cap", cap, *mode,
            )
            assert code == EXIT_ERROR and out == ""
            assert "point_cap" in err


RING_ARGS = ("ring", "--slopes", PENTAGON, "--max-den-exp", "0", "--max-num-deg", "1")
# (slopes, exit code, sha256) of `ring --format json` at default bounds on
# the benchmark's other ring-cold sets; the conductor-1980 set is Unknown
RING_COLD_PINS = (
    ("0,pi/3,2pi/3", EXIT_OK, "4c3d27aacd1e45286964ebe154eec5881ae4405ca464f36dd1fd05e857c0d2f4"),
    ("0,pi/4,pi/3", EXIT_OK, "bcf86a888942f56dd98d651f9b1b1149e7392f4b79731b47546b02d4602b6c38"),
    ("0,pi/5,pi/7", EXIT_OK, "c4e20ad7f8f889a95796f22b0d93ea67f05ce132b3e0a53a3a56e2c4ceeb751d"),
    ("0,pi/7,pi/3,pi/2,2pi/3", EXIT_OK,
     "241065bb98068174fd48984507024f746e0473f01863e3bf88e488cf160b4103"),
    ("0,pi/4,pi/3,2pi/3", EXIT_OK, "945c9397503867e72a9a73ee899bf3fddccd8e605f1a9220074e2205f4db871a"),
    ("0,pi/5,2pi/5,pi/2", EXIT_OK, "b38920c24fd369ecd36160d77dfa2ba2490a5f35eb00934b773c23f89e39d544"),
    ("0,pi/11,5pi/9,7pi/10", EXIT_UNKNOWN,
     "8d22a31b21585f17f232df800143de57085a15cb7b45186c5be8e78e4e174aa2"),
)


@pytest.mark.parametrize(
    "argv, exit_code, digest",
    [
        (
            ("generate", "--slopes", PENTAGON, "--levels", "2", "--format", "json"),
            EXIT_OK,
            "cde4f793a7a9ec02c372afbfece2f8bc113764e3500686a4b1c520b76316995f",
        ),
        (
            ("generate", "--slopes", "0,pi/6,pi/3,pi/2", "--levels", "3",
             "--cap", "300", "--format", "csv"),
            EXIT_OK,
            "b2758b746c0754592747213545b291223de6cede9d5b8edd585028d3db2c5680",
        ),
        (
            # "frame_scan" is [] since ring_check runs no frame scan
            RING_ARGS + ("--format", "json"),
            EXIT_UNKNOWN,
            "19912497724da42b99c5cdaf55b0f7e6c3bd80b58b2a7bdb1f2c32e491bcde9a",
        ),
        (
            RING_ARGS,
            EXIT_UNKNOWN,
            "ee49e71c982e7a61341fc1df15fbc3a4fbe08800dea6b130c2439e0c8647f49a",
        ),
        (
            ("pvalues", "--slopes", PENTAGON, "--format", "json"),
            EXIT_OK,
            "1660159e720973083bb2a9005aa30c43b0707864d0b978e2c6f5ef76668144e1",
        ),
        (
            ("member", "sqrt(3)", "--slopes", PENTAGON, "--format", "json"),
            EXIT_OK,
            "542a31d735b1d9b235866dfe494ca0f022e985f029abe48f62b79a6921a2e1ca",
        ),
        (
            # a capped level-3 prefix on the int64 kernels
            ("generate", "--slopes", "0,pi/5,pi/4,pi/3", "--levels", "3",
             "--cap", "1500", "--format", "csv"),
            EXIT_OK,
            "931c7fbdca2eb556cfe69cacfd6a6e9445d6481e514bcb3b54f5c265acacd4d1",
        ),
        (
            # conductor 1980: the Python-int kernels and batched Cartesian parts
            ("generate", "--slopes", "0,pi/11,5pi/9,7pi/10", "--levels", "1",
             "--format", "json"),
            EXIT_OK,
            "5643b18550110df483b70dc86a5e994472bc8575fa183a8147ce8cabfcd96c82",
        ),
        (
            # default bounds: all eight criterion elements ProvenIn
            ("ring", "--slopes", PENTAGON, "--format", "json"),
            EXIT_OK,
            "681faacbfb4bc8ccc82405c2892254fa0e48cdebe7abb6722b2afd36d53b59ff",
        ),
        (
            # the witness has denominator (p-1)^8
            ("member", "1/3", "--slopes", PENTAGON, "--format", "json"),
            EXIT_OK,
            "000d74a6350392c973d169ccfb007f591251983044f5ef0b5e358c8a88f0e660",
        ),
        (
            # 4,186 points and 1,096 distinct coordinates
            ("generate", "--slopes", PENTAGON, "--levels", "3", "--format", "json"),
            EXIT_OK,
            "1f3e1c1ac75ae5c0ae30cdc7c04329ac2e0d8fa94326786c2ba015b91d9b6904",
        ),
        (
            # 5,000 coordinates, 375 of them distinct
            ("generate", "--slopes", "0,pi/6,pi/3,pi/2", "--levels", "4",
             "--cap", "2500", "--format", "csv"),
            EXIT_OK,
            "81fdc2d1190e57db605704c06128677cb73588c341570d4a4ebd779b19944706",
        ),
        (
            ("classify", "--slopes", TRIANGLE, "--format", "json"),
            EXIT_OK,
            "791affeb6801b4bd4cf1a598f425b6615e51c73672c4dc424db7548ee2de19e3",
        ),
        (
            ("classify", "--slopes", PENTAGON),
            EXIT_OK,
            "675f6fd34d8d1e4adea2e4c9fb9774d8169caed707b6ecdf25a20239d4598667",
        ),
        (
            ("pvalues", "--slopes", PENTAGON),
            EXIT_OK,
            "396d1e3b9f4e75f39f80274158a6b53008e80516c54da0b5b083869972253a06",
        ),
        (
            ("member", "sqrt(3)", "--slopes", PENTAGON),
            EXIT_OK,
            "8fcea19991f09620cef51ec4aa89eac85a190a601087e51dd2580247e847eb51",
        ),
        (
            # Unknown: the document carries the "bounds" searched
            ("member", "1/3", "--slopes", PENTAGON, "--max-den-exp", "0",
             "--max-num-deg", "1", "--format", "json"),
            EXIT_UNKNOWN,
            "430713f34ae5793591fbbefb87068c8cf83225b4d37d308d6b12629da75d9743",
        ),
    ] + [(("ring", "--slopes", slopes, "--format", "json"), code, digest)
         for slopes, code, digest in RING_COLD_PINS],
    ids=["generate-json", "generate-csv", "ring-json", "ring-text",
         "pvalues-json", "member-json", "generate-capped-csv", "generate-1980-json",
         "ring-default-json", "member-third-json", "generate-level-3-json",
         "generate-cap-2500-csv", "classify-json", "classify-text", "pvalues-text",
         "member-text", "member-unknown-json"]
    + [f"ring-default-json-{slopes}" for slopes, _, _ in RING_COLD_PINS],
)
def test_output_bytes_are_stable(capsys, tmp_path, argv, exit_code, digest):
    target = tmp_path / "out"
    code, _, _ = run(capsys, *argv, "--out", str(target))
    assert code == exit_code
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--slopes", PENTAGON),
        RING_ARGS,
        ("member", "sqrt(3)", "--slopes", PENTAGON),
        ("pvalues", "--slopes", PENTAGON),
        ("generate", "--slopes", PENTAGON, "--levels", "2"),
        # floats, among them eps = 1e-07
        ("generate", "--slopes", PENTAGON, "--levels", "2", "--float-preview",
         "--eps", "1e-7"),
    ],
    ids=["classify", "ring", "member", "pvalues", "generate", "generate-float-preview"],
)
def test_json_documents_are_written_as_json_dumps_with_indent_2(capsys, monkeypatch, argv):
    docs = []
    writer = export.indented_json

    def capture(doc):
        docs.append(doc)
        return writer(doc)

    monkeypatch.setattr(export, "indented_json", capture)
    monkeypatch.setattr(cli, "indented_json", capture)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code in (EXIT_OK, EXIT_UNKNOWN)
    assert len(docs) == 1
    assert out == json.dumps(docs[0], indent=2) + "\n"


def test_out_of_memory_is_one_line(capsys, monkeypatch):
    # cos(pi/n) for an n of twelve digits needs a coefficient vector of n/2
    # entries; the allocation is simulated here, never made
    power_sum = cyclotomic._power_sum

    def exhausted(n, terms):
        if n > 10**9:
            raise MemoryError
        return power_sum(n, terms)

    monkeypatch.setattr(cyclotomic, "_power_sum", exhausted)
    code, out, err = run(capsys, "member", "cos(pi/100000000000)", "--slopes", PENTAGON)
    assert code == EXIT_ERROR and out == ""
    assert err == "error: out of memory for this input\n"


def test_slope_text_is_parsed_once_per_text(capsys):
    u = cli._parse_slopes(PENTAGON)
    assert cli._parse_slopes(PENTAGON) is u
    assert cli._parse_slopes(" " + PENTAGON) is not u and cli._parse_slopes(" " + PENTAGON) == u
    for _ in range(3):  # a failure is not cached: every call raises again
        with pytest.raises(InvalidSlopeSetError):
            cli._parse_slopes("0,pi/5")
        code, out, err = run(capsys, "member", "1/2", "--slopes", "0,pi/5")
        assert code == EXIT_ERROR and out == "" and err.startswith("error: need at least three")


FOUR = "0,pi/4,pi/3,2pi/3"
# ProvenIn with a witness, ProvenIn for a rational, ProvenNotIn by the
# field obstruction and by the working field, on both sets
WARM_QUERIES = [(q, slopes) for q in ("sqrt(3)", "1/2", "sqrt(2)", "cos(pi/7)")
                for slopes in (PENTAGON, FOUR)]


def test_warm_member_calls_write_what_fresh_processes_write(tmp_path):
    # one process alternating between two sets shares their SlopeSets,
    # lattices and query context; every byte matches a fresh process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for k, (query, slopes) in enumerate(WARM_QUERIES * 2):
        argv = ["member", query, "--slopes", slopes, "--format", "json"]
        assert main(argv + ["--out", str(tmp_path / f"warm{k}.json")]) in (EXIT_OK, EXIT_UNKNOWN)
    for k, (query, slopes) in enumerate(WARM_QUERIES):
        argv = ["member", query, "--slopes", slopes, "--format", "json",
                "--out", str(tmp_path / f"fresh{k}.json")]
        subprocess.run([sys.executable, "-m", "origami_rings.cli", *argv], check=True,
                       timeout=120, env={**os.environ, "PYTHONPATH": path})
        fresh = (tmp_path / f"fresh{k}.json").read_bytes()
        assert json.loads(fresh)["verdict"] in ("ProvenIn", "ProvenNotIn")
        for warm in (k, k + len(WARM_QUERIES)):
            assert (tmp_path / f"warm{warm}.json").read_bytes() == fresh, (query, slopes)
