import hashlib
import json

import pytest

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


def test_member_unknown_exit_code(capsys):
    code, out, _ = run(
        capsys, "member", "sqrt(3)", "--slopes", PENTAGON,
        "--max-den-exp", "1", "--max-num-deg", "2",
    )
    assert code == EXIT_UNKNOWN
    assert "Unknown" in out


def test_member_bad_expression(capsys):
    code, _, err = run(capsys, "member", "sqrt(", "--slopes", TRIANGLE)
    assert code == EXIT_ERROR
    assert "error" in err


def test_pvalues(capsys):
    code, out, _ = run(capsys, "pvalues", "--slopes", PENTAGON, "--precision", "6")
    assert code == EXIT_OK
    assert "conductor 120" in out
    assert "1.890529" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["ring"])  # --slopes is required
    assert info.value.code == EXIT_USAGE


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


def test_negative_precision_is_an_error(capsys):
    code, out, err = run(
        capsys, "pvalues", "--slopes", "0,pi/5,pi/3", "--precision", "-2"
    )
    assert code == EXIT_ERROR and out == ""
    assert "digits" in err


@pytest.mark.filterwarnings("error")
def test_float_preview_rejects_nonpositive_eps(capsys):
    code, out, err = run(
        capsys, "generate", "--slopes", TRIANGLE, "--float-preview", "--eps", "0"
    )
    assert code == EXIT_ERROR and out == ""
    assert "eps" in err


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
            RING_ARGS + ("--format", "json"),
            EXIT_UNKNOWN,
            "caf7f48147fd2bc555fe51d269e77e1ce0027f18fe329bbeb876b1685106ed60",
        ),
        (
            RING_ARGS,
            EXIT_UNKNOWN,
            "ee49e71c982e7a61341fc1df15fbc3a4fbe08800dea6b130c2439e0c8647f49a",
        ),
    ],
    ids=["generate-json", "generate-csv", "ring-json", "ring-text"],
)
def test_output_bytes_are_stable(capsys, tmp_path, argv, exit_code, digest):
    target = tmp_path / "out"
    code, _, _ = run(capsys, *argv, "--out", str(target))
    assert code == exit_code
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
