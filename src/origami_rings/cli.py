"""Command line interface.

Subcommands:

    classify   discrete lattice or dense point set
    ring       run the ring criteria with exact membership search
    generate   construct levels and export them (text, json, csv)
    member     decide membership of a value expression in the real subring
    pvalues    table of projection constants of the slope set

Exit codes: 0 for a decided result, 3 when the bounded search ends
Unknown, 2 for usage errors, 1 for runtime failures.  A JSON file of
flag defaults is read from the path in ORIGAMI_RINGS_CONFIG when set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .angles import Angle
from .construction import DEFAULT_POINT_CAP, generate
from .export import (
    DEFAULT_PRECISION,
    SCHEMA_VERSION,
    csv_text,
    indented_json,
    json_text,
    text_table,
)
from .expressions import ExpressionError, parse_expression
from .float_preview import generate_float
from .ring_analysis import (
    MembershipKind,
    RingStatus,
    SearchBounds,
    classify,
    membership_in_MR,
    delta_set,
    ring_check,
)
from .slopes import InvalidSlopeSetError, SlopeSet

CONFIG_ENV = "ORIGAMI_RINGS_CONFIG"
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

# The JSON types each config key may hold.  A string for a numeric flag
# goes through the flag's own argparse conversion, as on the command line.
_TEXT, _INT, _NUMBER = (str,), (int, str), (int, float, str)
CONFIG_TYPES = {
    "slopes": _TEXT, "format": _TEXT, "out": _TEXT + (type(None),),
    "precision": _INT, "levels": _INT, "cap": _INT,
    "max_den_exp": _INT, "max_num_deg": _INT,
    "float_preview": (bool,), "eps": _NUMBER,
}


class InvalidConfigError(Exception):
    pass


def _load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config {path!r}: {exc}")
    if not isinstance(config, dict):
        raise InvalidConfigError(f"config {path!r} must hold a JSON object")
    bad = set(config) - set(CONFIG_TYPES)
    if bad:
        raise InvalidConfigError(f"unknown config keys: {sorted(bad)}")
    for key, value in config.items():
        types = CONFIG_TYPES[key]
        # isinstance counts a bool as an int; only float_preview takes one
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise InvalidConfigError(
                f"config key {key!r} cannot hold {json.dumps(value)}"
            )
    return config


# Repeated calls in one process share one SlopeSet per text, and with it
# its cached p_table; an invalid text raises again on every call.
@lru_cache(maxsize=4)
def _parse_slopes(text: str) -> SlopeSet:
    parts = [p for p in text.split(",") if p.strip()]
    try:
        return SlopeSet(parts)
    except ValueError as exc:
        if any(("." in p) for p in parts):
            raise InvalidSlopeSetError(
                f"{exc} (decimal slopes only work with --float-preview)"
            )
        raise


_SLICE = 1 << 20  # characters per write of _emit


def _emit(text: str, out: Optional[str]) -> None:
    """Write text, ending in one newline, to the file out or else to stdout:
    the same characters either way, in slices of at most _SLICE characters,
    so no encoded copy of the whole text is made."""
    body = len(text) - text.endswith("\n")
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        for start in range(0, body, _SLICE):
            fh.write(text[start : min(start + _SLICE, body)])
        # one large write to a pipe whose reader has gone can end short
        # without an error, so the last newline goes in a write of its own;
        # the flush then fails here, not at exit
        fh.write("\n")
        fh.flush()


def _bounds(args) -> SearchBounds:
    return SearchBounds(
        max_den_exp=args.max_den_exp, max_num_deg=args.max_num_deg
    )


def _witness_json(witness) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "generators": list(witness.generator_names),
        "numerator": [
            {"coefficient": str(c), "exponents": list(e)}
            for c, e in witness.numerator_terms
        ],
        "denominator": witness.denominator_exponents,
    }


def _document(kind: str, u: SlopeSet, frame: bool = False, **fields) -> dict:
    """A JSON document: schema, kind and slopes, then alpha and beta when
    frame is set, then the fields in their order."""
    doc = {"schema": SCHEMA_VERSION, "kind": kind, "slopes": [str(s) for s in u.slopes]}
    if frame:
        doc.update(alpha=str(u.alpha), beta=str(u.beta))
    doc.update(fields)
    return doc


def _verdict_json(verdict) -> dict:
    return {
        "verdict": verdict.kind.value,
        "reason": verdict.reason,
        "witness": _witness_json(verdict.witness),
    }


def _run_classify(args) -> int:
    u = _parse_slopes(args.slopes)
    result = classify(u)
    if args.format == "json":
        doc = _document("classification", u, result=result.kind.value, reason=result.reason)
        _emit(indented_json(doc), args.out)
    else:
        _emit(f"{u}: {result}", args.out)
    return EXIT_OK


def _run_ring(args) -> int:
    u = _parse_slopes(args.slopes)
    report = ring_check(u, bounds=_bounds(args))
    if args.format == "json":
        doc = _document(
            "ring-report", u, frame=True,
            status=report.status.value,
            decided_by=report.decided_by,
            criteria=[
                {
                    "name": c.name,
                    "status": c.status.value,
                    "elements": [
                        {
                            "label": label,
                            "decimal": value.decimal(args.precision),
                            **_verdict_json(verdict),
                        }
                        for (label, value), verdict in zip(c.elements, c.verdicts)
                    ],
                }
                for c in report.criteria
            ],
            frame_scan=[],  # schema 1 keeps the key; ring_check runs no frame scan
        )
        _emit(indented_json(doc), args.out)
    else:
        lines = [f"{u} with frame ({u.alpha}, {u.beta}): {report.status.value}"]
        if report.decided_by:
            lines.append(f"decided by {report.decided_by}")
        for c in report.criteria:
            lines.append(f"  criterion {c.name}: {c.status.value}")
            for (label, value), verdict in zip(c.elements, c.verdicts):
                lines.append(
                    f"    {label} = {value.decimal(args.precision)}: {verdict}"
                )
        _emit("\n".join(lines), args.out)
    return EXIT_OK if report.status is not RingStatus.UNKNOWN else EXIT_UNKNOWN


def _run_generate(args) -> int:
    if args.float_preview:
        try:
            radians = [float(eval_slope(p)) for p in args.slopes.split(",") if p.strip()]
        except ValueError as exc:
            raise InvalidSlopeSetError(str(exc))
        levels = generate_float(
            radians, args.levels, point_cap=args.cap, eps=args.eps
        )
        if args.format == "csv":
            rows = ["level,re,im"]
            for k, (points, _) in enumerate(levels):
                rows.extend(
                    f"{k},{z.real:.{args.precision}f},{z.imag:.{args.precision}f}"
                    for z in points
                )
            _emit("\n".join(rows), args.out)
        elif args.format == "json":
            doc = {
                "schema": SCHEMA_VERSION,
                "kind": "float-preview",
                "eps": args.eps,
                "levels": [
                    {
                        "level": k,
                        "truncated": truncated,
                        "points": [
                            [round(z.real, args.precision), round(z.imag, args.precision)]
                            for z in points
                        ],
                    }
                    for k, (points, truncated) in enumerate(levels)
                ],
            }
            _emit(indented_json(doc), args.out)
        else:
            lines = []
            for k, (points, truncated) in enumerate(levels):
                flag = " (truncated)" if truncated else ""
                lines.append(f"level {k}: {len(points)} points{flag}")
            _emit("\n".join(lines), args.out)
        return EXIT_OK

    u = _parse_slopes(args.slopes)
    levels = generate(u, args.levels, point_cap=args.cap)
    if args.format == "json":
        _emit(json_text(u, levels, args.precision), args.out)
    elif args.format == "csv":
        _emit(csv_text(levels, args.precision), args.out)
    else:
        _emit(text_table(levels, args.precision), args.out)
    return EXIT_OK


def eval_slope(text: str) -> float:
    """A slope for preview mode: plain radians or an exact angle string."""
    part = text.strip()
    try:
        return float(part)
    except ValueError:
        pass
    try:
        angle = Angle.parse(part)
    except ValueError:
        raise ValueError(f"cannot read slope {part!r} as radians or a pi fraction")
    return angle.radians


def _run_member(args) -> int:
    u = _parse_slopes(args.slopes)
    value = parse_expression(args.value)
    verdict = membership_in_MR(value, u, bounds=_bounds(args))
    if args.format == "json":
        doc = _document(
            "membership", u,
            value=args.value,
            decimal=value.decimal(args.precision),
            **_verdict_json(verdict),
        )
        if verdict.bounds is not None:
            doc["bounds"] = {
                "max_den_exp": verdict.bounds.max_den_exp,
                "max_num_deg": verdict.bounds.max_num_deg,
            }
        _emit(indented_json(doc), args.out)
    else:
        lines = [f"{args.value} in M_R({u}): {verdict.kind.value}"]
        if verdict.reason:
            lines.append(f"  {verdict.reason}")
        if verdict.witness is not None and verdict.witness.denominator_factors:
            exps = ", ".join(
                f"{name}: {e}"
                for name, e in verdict.witness.denominator_exponents.items()
            )
            lines.append(f"  denominator exponents: {exps}")
            lines.append(f"  witness: {verdict.witness}")
        if verdict.bounds is not None:
            lines.append(f"  searched up to {verdict.bounds}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if verdict.kind is not MembershipKind.UNKNOWN else EXIT_UNKNOWN


def _run_pvalues(args) -> int:
    u = _parse_slopes(args.slopes)
    table = u.p_table
    deltas = delta_set(u)
    if args.format == "json":
        doc = _document(
            "p-values", u, frame=True,
            conductor=u.working_conductor,
            values=[
                {
                    "slope": str(g),
                    "decimal": table[g].decimal(args.precision),
                    "coefficients": list(table[g].coefficient_strings()),
                }
                for g in u.nonzero_slopes
            ],
            delta=[v.decimal(args.precision) for v in deltas],
        )
        _emit(indented_json(doc), args.out)
    else:
        lines = [
            f"{u} with frame ({u.alpha}, {u.beta}), conductor {u.working_conductor}"
        ]
        for g in u.nonzero_slopes:
            lines.append(f"  p({g}) = {table[g].decimal(args.precision)}")
        lines.append(
            "delta: " + ", ".join(v.decimal(args.precision) for v in deltas)
        )
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _build_parser(config: Optional[dict] = None) -> argparse.ArgumentParser:
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="origami-rings",
        description="Exact construction and ring analysis of origami point sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument(
            "--slopes",
            required="slopes" not in config,
            help="comma separated directions, e.g. 0,pi/5,pi/4,pi/3",
        )
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(formats=formats)
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument(
            "--precision",
            type=int,
            default=DEFAULT_PRECISION,
            help="decimal digits in approximations",
        )

    def search_bounds(p):
        p.add_argument(
            "--max-den-exp",
            type=int,
            default=SearchBounds().max_den_exp,
            help="largest exponent per delta generator in the denominator",
        )
        p.add_argument(
            "--max-num-deg",
            type=int,
            default=SearchBounds().max_num_deg,
            help="largest numerator monomial degree",
        )

    p = sub.add_parser("classify", help="discrete lattice or dense point set")
    common(p)
    p.set_defaults(run=_run_classify)

    p = sub.add_parser("ring", help="decide the ring property")
    common(p)
    search_bounds(p)
    p.set_defaults(run=_run_ring)

    p = sub.add_parser("generate", help="construct and export point levels")
    common(p, formats=("text", "json", "csv"))
    p.add_argument("--levels", type=int, default=3, help="construction rounds")
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_POINT_CAP,
        help="stop a level at this many points",
    )
    p.add_argument(
        "--float-preview",
        action="store_true",
        help="fast floating point mode; slopes may be plain radians",
    )
    p.add_argument(
        "--eps",
        type=float,
        default=1e-9,
        help="dedup distance in float preview mode",
    )
    p.set_defaults(run=_run_generate)

    p = sub.add_parser("member", help="membership in the real subring")
    p.add_argument("value", help="exact value expression, e.g. 'sqrt(3)'")
    common(p)
    search_bounds(p)
    p.set_defaults(run=_run_member)

    p = sub.add_parser("pvalues", help="projection constants of the set")
    common(p)
    p.set_defaults(run=_run_pvalues)

    # Subcommands parse into a fresh namespace, so config defaults must
    # land on every subparser, not just the root.
    for sub_parser in sub.choices.values():
        sub_parser.set_defaults(**config)
    return parser


# One parser per config, keyed by its canonical JSON, so that repeated
# calls in one process do not rebuild the subcommand tree.
@lru_cache(maxsize=4)
def _parser(config_json: str) -> argparse.ArgumentParser:
    return _build_parser(json.loads(config_json))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = _load_config()
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = _parser(json.dumps(config, sort_keys=True)).parse_args(argv)
    # argparse checks choices on the command line only, not on config defaults
    if args.format not in args.formats:
        bad = json.dumps(args.format)
        print(f"error: config key 'format' cannot hold {bad}", file=sys.stderr)
        return EXIT_USAGE
    if args.precision < 0:
        print("error: digits must be nonnegative", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.run(args)
    except (InvalidSlopeSetError, ExpressionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ZeroDivisionError as exc:
        print(f"error: division by zero: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        # an input whose exact value needs more memory than there is, such
        # as cos(pi/n) for an n of twelve digits
        print("error: out of memory for this input", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        if args.out is None and isinstance(exc, BrokenPipeError):
            # stdout's reader has gone: say nothing, and point stdout at
            # os.devnull so that its flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_ERROR
        where = args.out or "<stdout>"  # a write error carries no file name
        print(f"error: cannot write '{where}': {exc.strerror}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
