"""The benchmark's workloads: inputs, the op each one times, and checks.

Every workload runs against a freshly imported engine (`eng`, a
namespace of origami_rings modules) and drives it the way a user does:
through the CLI entry point in process, or through the library for the
sweep.  `execute` is the timed part; `check` runs after it, untimed, and
compares the op's output against references the op did not produce.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from math import gcd
from pathlib import Path

from stats import OpResult

PENTAGON = "0,pi/5,pi/4,pi/3"

_ANGLE_RE = re.compile(r"^(\d*)pi(?:/(\d+))?$")


def radians(text: str) -> float:
    """Float value of a direction written as 0, pi, kpi/n or pi/n."""
    text = text.strip()
    if text == "0":
        return 0.0
    m = _ANGLE_RE.match(text)
    if m is None:
        raise ValueError(f"not a pi fraction: {text!r}")
    k = int(m.group(1) or 1)
    n = int(m.group(2) or 1)
    return k * math.pi / n


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def cert_bits(witness) -> int:
    if witness is None:
        return 0
    return max((abs(c).bit_length() for c, _ in witness.numerator_terms), default=0)


def _point_key(point) -> tuple:
    """Exact identity of a point whose coordinates share one conductor."""
    return (point.r.conductor, point.r._num, point.r._den, point.s._num, point.s._den)


def tap(module, attr: str, sink: list):
    """Keep every return value of module.attr, so checks can see exact objects."""
    original = getattr(module, attr)

    def tapped(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, attr, tapped)


def check_verdicts(elements, verdicts, failures: list, where: str) -> int:
    """Re-evaluate every witness exactly; return the largest coefficient in bits."""
    bits = 0
    for (label, value), verdict in zip(elements, verdicts):
        if verdict.witness is None:
            continue
        if verdict.witness.evaluate() != value:
            failures.append(f"{where}: witness for {label} does not re-evaluate")
        bits = max(bits, cert_bits(verdict.witness))
    return bits


def check_report(report, failures: list) -> int:
    """Criteria never disagree; the overall status follows them; witnesses hold."""
    decided = {c.status.value for c in report.criteria} - {"Unknown"}
    decided |= {s.status.value for s in report.frame_scan} - {"Unknown"}
    if len(decided) > 1:
        failures.append(f"decided criteria disagree: {sorted(decided)}")
    if report.status.value != "Unknown" and report.status.value not in decided:
        failures.append(f"status {report.status.value} backed by no criterion")
    bits = 0
    for c in report.criteria:
        bits = max(bits, check_verdicts(c.elements, c.verdicts, failures, c.name))
    for s in report.frame_scan:
        bits = max(bits, check_verdicts(s.elements, s.verdicts, failures, "frame scan"))
    return bits


class Workload:
    """Interface shared by the workloads; see run.py for the loop."""

    name = ""
    cap_s = 0.0  # per-op cap in reference seconds (gauge.py)
    pass_size = 1  # ops that make one pass; a run stops only between passes
    passes = 1  # passes an untraced run makes
    certifies = True  # ops end with a certificate, so decided_frac applies

    def __init__(self, seed: int, out_dir: Path, new_engine):
        self.seed = seed
        self.out_dir = out_dir
        self.new_engine = new_engine  # imports a fresh engine

    def setup(self, eng):
        raise NotImplementedError

    def before(self, op):
        """Untimed preparation of one op."""

    def ops(self):
        raise NotImplementedError

    def label(self, op) -> str:
        return str(op[0])

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, raw, result: OpResult):
        raise NotImplementedError

    def _cli(self, argv):
        code = self.eng.cli.main(argv)
        if code not in (0, 3):
            raise RuntimeError(f"exit code {code} from {' '.join(argv)}")
        return code


class RingCold(Workload):
    """Time to a verdict, from cold, for pinned slope sets.

    One op analyses one set as the README shows: pvalues, classify and
    ring --format json, each written to a file.  Every op runs on a
    freshly imported engine, so no engine cache carries over from an
    earlier op; that lets the six quick sets run three times each, for a
    steady median.  The seed does not change the inputs.
    """

    name = "ring-cold"
    # The pentagon took 22 to 23 reference seconds, once 26.5; the cap
    # leaves it 1.4x over the usual and 1.2x over the slowest.  The
    # conductor-1980 set spends the whole cap.
    cap_s = 32.0
    # (slopes, verdict the op must reach).  The first four verdicts are
    # frozen by tests/test_ring_analysis.py, the fifth by the theorem of
    # acceptance criterion 3 (pi/3 and 2pi/3 present), the sixth is the
    # unanimous verdict of all four criteria at the first benchmarked
    # commit, the pentagon's by the README.  The last set (conductor
    # 1980) had no verdict within the cap at that commit; any verdict it
    # reaches must pass the generic checks.
    QUICK = (
        ("0,pi/3,2pi/3", "Ring"),
        ("0,pi/4,pi/3", "NotRing"),
        ("0,pi/5,pi/7", "NotRing"),
        ("0,pi/7,pi/3,pi/2,2pi/3", "Ring"),
        ("0,pi/4,pi/3,2pi/3", "Ring"),
        ("0,pi/5,2pi/5,pi/2", "Ring"),
    )
    SLOW = (
        (PENTAGON, "Ring"),
        ("0,pi/11,5pi/9,7pi/10", None),
    )
    SETS = QUICK * 3 + SLOW
    pass_size = len(SETS)

    def setup(self, eng):
        self.eng = eng
        self.reports = []
        tap(eng.cli, "ring_check", self.reports)
        self.paths = {
            cmd: self.out_dir / f"ring-cold-{cmd}.json"
            for cmd in ("pvalues", "classify", "ring")
        }

    def before(self, op):
        self.setup(self.new_engine())

    def ops(self):
        return iter(self.SETS)

    def execute(self, op):
        slopes, _ = op
        del self.reports[:]
        for cmd, path in self.paths.items():
            self._cli([cmd, "--slopes", slopes, "--format", "json", "--out", str(path)])
        return self.reports[-1]

    def check(self, op, report, result):
        slopes, expected = op
        failures = result.failures
        docs = {cmd: json.loads(path.read_text()) for cmd, path in self.paths.items()}
        names = slopes.split(",")

        kind = docs["classify"]["result"]
        if kind != ("Discrete" if len(names) == 3 else "Dense"):
            failures.append(f"classify gave {kind} for {len(names)} directions")

        pv = docs["pvalues"]
        alpha, beta = radians(pv["alpha"]), radians(pv["beta"])
        for entry in pv["values"]:
            g = radians(entry["slope"])
            ref = (
                math.sin(alpha - g) * math.sin(beta)
                / (math.sin(alpha - beta) * math.sin(g))
            )
            if not close(float(entry["decimal"]), ref):
                failures.append(f"p({entry['slope']}) = {entry['decimal']}, float gives {ref}")

        ring = docs["ring"]
        if ring["status"] != report.status.value:
            failures.append("JSON status differs from the returned report")
        if expected is not None and ring["status"] != expected:
            failures.append(f"status {ring['status']}, frozen verdict {expected}")
        result.cert_bits = check_report(report, failures)
        result.decided = report.status.value != "Unknown"

        if slopes == PENTAGON:
            ratios = report.criterion("ratios").elements
            parse = self.eng.pkg.parse_expression
            wanted = (parse("6+3*sqrt(3)"), parse("4+2*sqrt(3)"))
            for (label, value), want in zip(ratios, wanted):
                if value != want:
                    failures.append(f"pentagon ratio {label} is not exact")
            floats = (6 + 3 * math.sqrt(3), 4 + 2 * math.sqrt(3))
            crit = next(c for c in ring["criteria"] if c["name"] == "ratios")
            for element, ref in zip(crit["elements"], floats):
                if not close(float(element["decimal"]), ref):
                    failures.append(f"pentagon ratio decimal {element['decimal']}")


class Construct(Workload):
    """Exact construction and export, the path that never touches linalg.

    One pass is two CLI generate calls: the pentagon to level 3 as JSON,
    and {0,pi/6,pi/3,pi/2} to level 4 with a point cap as CSV.  One op is
    one exported point.  The seed does not change the inputs.  The
    second pass finds the engine's lru caches warm, as in any long
    session.
    """

    name = "construct"
    cap_s = 30.0  # each call takes 0.5 to 5 reference seconds
    certifies = False
    CALLS = (
        (PENTAGON, 3, None, "json"),
        ("0,pi/6,pi/3,pi/2", 4, 2500, "csv"),
    )
    pass_size = len(CALLS)
    # a pass takes about 6 reference seconds; two passes stay above
    # run_seconds, so every run makes the same calls
    passes = 2

    def setup(self, eng):
        self.eng = eng
        self.levels = []
        tap(eng.cli, "generate", self.levels)
        self.verified = {}  # call -> (output digest, points, checks passed)

    def ops(self):
        while True:
            yield from self.CALLS

    def label(self, op):
        return f"{op[0]} to level {op[1]} as {op[3]}"

    def _path(self, op):
        return self.out_dir / f"construct-{op[1]}.{op[3]}"

    def execute(self, op):
        slopes, levels, cap, fmt = op
        argv = ["generate", "--slopes", slopes, "--levels", str(levels)]
        if cap is not None:
            argv += ["--cap", str(cap)]
        del self.levels[:]
        self._cli(argv + ["--format", fmt, "--out", str(self._path(op))])
        return self.levels[-1]

    def check(self, op, levels, result):
        digest = hashlib.sha256(self._path(op).read_bytes()).hexdigest()
        if op in self.verified:
            # a repeated call must write the bytes of the first one
            want, points, passed = self.verified[op]
            if digest != want:
                result.failures.append("output differs from the first call")
            elif not passed:
                result.failures.append("same output as a first call that failed")
            result.weight = points
            return
        self._verify(op, levels, result.failures)
        result.weight = len(levels[-1])
        self.verified[op] = (digest, result.weight, not result.failures)

    def _verify(self, op, levels, failures):
        slopes, k_max, cap, fmt = op
        pkg = self.eng.pkg
        cap_value = cap if cap is not None else self.eng.construction.DEFAULT_POINT_CAP
        preview = pkg.generate_float(
            [radians(s) for s in slopes.split(",")], k_max, point_cap=cap_value
        )
        counts = [len(level) for level in levels]
        for k, (level, (points, truncated)) in enumerate(zip(levels, preview)):
            if len(level) != len(points) or level.truncated != truncated:
                failures.append(
                    f"level {k}: {len(level)} points, truncated={level.truncated}; "
                    f"float preview {len(points)}, truncated={truncated}"
                )
            if truncated:
                # later levels grow from differently ordered prefixes
                if len(level) != cap_value:
                    failures.append(f"capped level {k} holds {len(level)} points")
                break
        if cap is not None and not levels[-1].truncated:
            failures.append("the capped call was not truncated")

        births = [counts[0]] + [b - a for a, b in zip(counts, counts[1:])]
        path = self._path(op)
        if fmt == "json":
            doc = json.loads(path.read_text())
            if doc["truncated"] != any(level.truncated for level in levels):
                failures.append("JSON truncated flag is wrong")
            _, back = pkg.from_json_document(doc)
            for k, (a, b) in enumerate(zip(levels, back)):
                if sorted(map(_point_key, a.points)) != sorted(map(_point_key, b.points)):
                    failures.append(f"level {k} does not round-trip through JSON")
            written = [0] * (k_max + 1)
            for point in doc["points"]:
                written[point["level"]] += 1
        else:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            written = [0] * (k_max + 1)
            for row in rows:
                written[int(row[0])] += 1
        if written != births:
            failures.append(f"points per birth level {written}, expected {births}")


class MemberWarm(Workload):
    """Membership queries against one warm pentagon session.

    Set-up builds the field basis and the monomial lattice through one
    warm-up query, so the timed part is queries only.  The seed draws a
    stream of CLI member queries in rounds of four: a level-2
    coordinate, two values inside the field of the projection constants
    (a square root or a cosine or sine of a pi fraction, then a small
    rational) and one outside it (a square root or a cosine or sine).
    Inside queries find a witness in 2 to 6 reference seconds; outside
    ones end in well under a second on the field obstruction.  Every round
    has the same mix, so a round's cost varies little with the draw.
    """

    name = "member-warm"
    cap_s = 30.0  # a query that finds a witness takes 2 to 6 reference seconds
    pass_size = 4  # one round
    passes = 2
    WARM_UP = "1/7"
    # Pools with the verdicts they had when the benchmark was written:
    # every INSIDE value was ProvenIn with a witness that re-evaluates,
    # every OUTSIDE value ProvenNotIn by the field obstruction.
    INSIDE_SQRTS = (3, 5, 15)
    INSIDE_TRIG = (3, 5, 6, 10, 15, 30)
    INSIDE_RATIONALS = (
        (1, 2), (1, 3), (3, 5), (2, 5), (5, 6), (1, 4),
        (7, 3), (1, 15), (1, 5), (2, 3), (1, 6),
    )
    OUTSIDE_SQRTS = (2, 6, 7, 10, 11, 13, 14, 17, 19, 21, 30)
    OUTSIDE_TRIG = (4, 8, 12, 20, 24, 60)

    def setup(self, eng):
        self.eng = eng
        pkg = eng.pkg
        self.verdicts = []
        tap(eng.cli, "membership_in_MR", self.verdicts)
        self.path = self.out_dir / "member-warm.json"
        u = pkg.SlopeSet(PENTAGON.split(","))
        seen = {}
        for point in pkg.generate(u, 2)[2]:
            for value in (point.r, point.s):
                if not value.is_integer:
                    seen.setdefault((value._num, value._den), value)
        self.coords = [self._coordinate_query(v) for v in seen.values()]
        self._cli(["member", self.WARM_UP, "--slopes", PENTAGON, "--format", "json",
                   "--out", str(self.path)])

    def _coordinate_query(self, value):
        """(class, expression, exact value, float value) of a coordinate.

        A real element sum c_j zeta_n^j equals sum c_j cos(2 pi j / n).
        """
        n = value.conductor
        terms, ref = [], 0.0
        for j, c in enumerate(value._num):
            if not c:
                continue
            terms.append(f"({c})" if j == 0 else f"({c})*cos({2 * j}pi/{n})")
            ref += c * math.cos(2 * math.pi * j / n)
        text = f"({' + '.join(terms)})/{value._den}"
        if self.eng.pkg.parse_expression(text) != value:
            raise RuntimeError(f"query expression {text} misses its coordinate")
        return ("coordinate", text, value, ref / value._den)

    def _expression_query(self, rng, inside: bool, pool):
        """A value drawn from `pool`.

        Pool entries are ("sqrt", q), ("trig", n) and ("rational", (a, b)).
        """
        kind, arg = rng.choice(pool)
        if kind == "sqrt":
            text, ref = f"sqrt({arg})", math.sqrt(arg)
        elif kind == "trig":
            k = rng.choice([k for k in range(1, arg) if gcd(k, 2 * arg) == 1])
            fn = rng.choice(("cos", "sin"))
            text, ref = f"{fn}({k}pi/{arg})", getattr(math, fn)(k * math.pi / arg)
        else:
            a, b = arg
            text, ref = f"{a}/{b}", a / b
        value = self.eng.pkg.parse_expression(text)
        return ("inside" if inside else "outside", text, value, ref)

    def ops(self):
        rng = random.Random(self.seed)
        radicals = [("sqrt", q) for q in self.INSIDE_SQRTS] + [
            ("trig", n) for n in self.INSIDE_TRIG
        ]
        rationals = [("rational", ab) for ab in self.INSIDE_RATIONALS]
        outside = [("sqrt", q) for q in self.OUTSIDE_SQRTS] + [
            ("trig", n) for n in self.OUTSIDE_TRIG
        ]
        while True:
            yield rng.choice(self.coords)
            yield self._expression_query(rng, True, radicals)
            yield self._expression_query(rng, True, rationals)
            yield self._expression_query(rng, False, outside)

    def label(self, op):
        return op[1]

    def execute(self, op):
        _, text, _, _ = op
        del self.verdicts[:]
        self._cli(["member", text, "--slopes", PENTAGON, "--format", "json",
                   "--out", str(self.path)])
        return self.verdicts[-1]

    def check(self, op, verdict, result):
        kind, text, value, ref = op
        failures = result.failures
        doc = json.loads(self.path.read_text())
        got = verdict.kind.value
        if doc["verdict"] != got:
            failures.append("JSON verdict differs from the returned verdict")
        if not close(float(doc["decimal"]), ref):
            failures.append(f"{text} printed as {doc['decimal']}, float gives {ref}")
        if kind in ("coordinate", "inside") and got == "ProvenNotIn":
            failures.append(f"{kind} value {text} was proven outside the ring")
        if kind == "outside" and got == "ProvenIn":
            failures.append(f"{text}, outside the field, was proven inside the ring")
        if text == "sqrt(3)" and got != "ProvenIn":
            failures.append("sqrt(3) lost its README verdict ProvenIn")
        if verdict.witness is not None:
            if verdict.witness.evaluate() != value:
                failures.append(f"witness for {text} does not re-evaluate")
            result.cert_bits = cert_bits(verdict.witness)
        result.decided = got != "Unknown"


class Sweep(Workload):
    """Random four-slope sets through ring_check with small search bounds.

    The seed draws 0 plus three distinct directions k*pi/n, n <= 12, per
    set, skipping sets already drawn; bounds are those of acceptance
    criterion 7.
    """

    name = "sweep"
    cap_s = 30.0

    def setup(self, eng):
        self.eng = eng
        pkg = eng.pkg
        self.bounds = pkg.SearchBounds(max_den_exp=2, max_num_deg=8, max_candidates=300)
        self.pool = [
            pkg.Angle(k, n) for n in range(2, 13) for k in range(1, n) if gcd(k, n) == 1
        ]

    def ops(self):
        rng = random.Random(self.seed)
        drawn = set()
        while True:
            picks = tuple(sorted(rng.sample(self.pool, 3)))
            if picks not in drawn:
                drawn.add(picks)
                yield self.eng.pkg.SlopeSet([self.eng.pkg.Angle.zero(), *picks])

    def label(self, u):
        return str(u)

    def execute(self, u):
        return self.eng.pkg.ring_check(u, bounds=self.bounds)

    def check(self, u, report, result):
        result.cert_bits = check_report(report, result.failures)
        result.decided = report.status.value != "Unknown"


WORKLOADS = {w.name: w for w in (RingCold, Construct, MemberWarm, Sweep)}
