"""Benchmark of the origami_rings engine.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload ring-cold --seed 1 --seconds 5 --trace 0

Workloads: ring-cold, construct, member-warm (listed in BENCHMARK.json)
and sweep (run by hand; see README.md in this directory).  The run
imports the engine from ./src, sets it up several times and reports the
median set-up time, then times passes of ops, one after another in
this process and thread, each under a cap, for a fixed number of
passes and at least --seconds of op time.  Times are reference
seconds: the CPU time of this single-threaded process, rescaled by the
machine's speed measured while it ran (see gauge.py); CPU and wall
seconds are printed beside them.  Every op's output is checked.
Human-readable lines come first; the last line of standard output is
one JSON object.  With --trace 1 the pass runs with span
wrappers installed, then the same ops run untraced on a freshly
imported engine to measure the tracing overhead, and the JSON holds
the per-layer metrics instead of the end-to-end ones.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
engine's sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from gauge import Gauge, OverCap
from spans import EngineTracer
from stats import ERROR, OK, OVER_CAP, OpResult, end_to_end, op_counts
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT_DIR = REPO / ".bench_out"
# Set-up runs at least SETUP_REPEATS times, and until SETUP_SECONDS of
# set-up time have passed, so that a set-up of a few milliseconds gets a
# median over many samples while member-warm's 4 s one runs only twice.
SETUP_REPEATS = 2
SETUP_SECONDS = 0.5
ENGINE_MODULES = (
    "cli", "construction", "cyclotomic", "export", "linalg", "ring_analysis",
)


def fresh_engine():
    """Import origami_rings from ./src with empty module-level caches."""
    for name in [m for m in sys.modules if m.split(".")[0] == "origami_rings"]:
        del sys.modules[name]
    pkg = importlib.import_module("origami_rings")
    if Path(pkg.__file__).resolve().parent != SRC / "origami_rings":
        raise ImportError(f"origami_rings came from {pkg.__file__}, not ./src")
    mods = {m: importlib.import_module(f"origami_rings.{m}") for m in ENGINE_MODULES}
    return SimpleNamespace(pkg=pkg, **mods)


def set_up(make_workload, gauge):
    """A workload with a fresh engine; returns it and the reference seconds it took."""
    gc.collect()  # free engines dropped earlier, outside the timing
    gauge.start()
    workload = make_workload()
    workload.setup(fresh_engine())
    return workload, gauge.stop()[1]


def timed_pass(workload, gauge, seconds=0.0, passes=1, tracer=None, count=None, skip=()):
    """Run ops one after another, each under the workload's cap.

    Without `count`, ops run for `passes` whole passes, and for more
    whole passes while less than `seconds` of op time have passed; with
    it, exactly the first `count` ops run, except the indices in `skip`,
    whose results are None.  Checks run between ops and are not timed.
    Op time is in reference seconds, and an over-cap op costs exactly
    its cap.
    """
    results, timed = [], 0.0
    for index, op in enumerate(workload.ops()):
        if count is not None and index >= count:
            break
        if index in skip:
            results.append(None)
            continue
        workload.before(op)
        # garbage left by earlier ops and checks is not this op's cost
        gc.collect()
        if tracer is not None:
            tracer.op_id = index
            tracer.install(workload.eng)
        raw, outcome = None, OK
        wall = time.perf_counter()
        gauge.start(workload.cap_s)
        try:
            raw = workload.execute(op)
        except OverCap:
            outcome = OVER_CAP
        except Exception as exc:  # an op that raises is counted, not fatal
            outcome, raw = ERROR, exc
        finally:
            cpu, elapsed = gauge.stop()
        wall = time.perf_counter() - wall
        if outcome == OVER_CAP:
            elapsed = workload.cap_s
        if tracer is not None:
            tracer.uninstall()
            if outcome == OVER_CAP:
                tracer.recover()
        timed += elapsed
        done = (index + 1) // workload.pass_size
        result = OpResult(
            workload.label(op), elapsed, outcome, index // workload.pass_size,
            cpu_s=cpu, wall_s=wall,
        )
        if outcome == OK:
            workload.check(op, raw, result)
        elif outcome == ERROR:
            result.failures.append(f"{type(raw).__name__}: {raw}")
        results.append(result)
        if (
            count is None
            and (index + 1) % workload.pass_size == 0
            and done >= passes
            and timed >= seconds
        ):
            break
    return results


def paired_rates(traced, reference):
    """ops/s of the traced and untraced runs of the ops both finished."""
    pairs = [
        (t, r) for t, r in zip(traced, reference)
        if r is not None and t.outcome == OK and r.outcome == OK
    ]
    ops = sum(t.weight for t, _ in pairs)
    traced_s = sum(t.seconds for t, _ in pairs)
    untraced_s = sum(r.seconds for _, r in pairs)
    return (ops / traced_s if traced_s else 0.0, ops / untraced_s if untraced_s else 0.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(title, workload, results, summary, setups):
    print(f"{workload.name} {title}, seconds as reference, CPU, wall:")
    for r in results:
        status = r.outcome + (" CHECK FAILED" if r.failures else "")
        print(f"  {r.seconds:9.4f} {r.cpu_s:9.4f} {r.wall_s:9.4f}  {status:<10} {r.label}")
        for failure in r.failures:
            print(f"      ! {failure}")
    n = summary["op_s.samples"]
    lines = [
        ("setup_s", "s", f"median of {setups}"),
        ("ops_per_s", "ops/s",
         f"{summary['completed']} ops completed in {summary['passes']} passes"),
        ("op_s.p50", "s", f"n={n}"),
        ("op_s.max", "s", f"n={n}"),
        ("failed_frac", "ratio",
         f"{summary['failed']}/{summary['attempted']}, "
         f"{summary['over_cap']} over the {workload.cap_s:g} s cap"),
        ("peak_rss_mb", "MB", ""),
    ]
    if workload.certifies:
        lines += [
            ("decided_frac", "ratio", f"{summary['decided']}/{summary['attempted']}"),
            ("cert_bits.max", "bits", ""),
        ]
    for name, unit, note in lines:
        print(f"  {name:<14} {summary[name]:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "origami_rings" / "__init__.py").is_file():
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one thread: numpy's BLAS must not start a pool of its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # third-party imports are paid once, outside the set-up being timed
    import mpmath  # noqa: F401
    import numpy  # noqa: F401

    gauge = Gauge()
    OUT_DIR.mkdir(exist_ok=True)

    def make():
        return WORKLOADS[args.workload](args.seed, OUT_DIR, fresh_engine)

    if args.trace:
        # per-layer metrics from one traced pass; the same ops then run
        # untraced on a fresh engine to measure what the tracing costs.
        # An op that hit its cap traced is not re-run: it would only
        # spend its cap again.
        tracer = EngineTracer()
        workload, setup_s = set_up(make, gauge)
        results = timed_pass(workload, gauge, args.seconds, 1, tracer)
        summary = end_to_end(results)
        summary["setup_s"] = setup_s
        summary["peak_rss_mb"] = peak_rss_mb()
        report("traced pass", workload, results, summary, 1)
        skip = {i for i, r in enumerate(results) if r.outcome != OK}
        workload = None
        reference_workload, setup_s = set_up(make, gauge)
        reference = timed_pass(reference_workload, gauge, count=len(results), skip=skip)
        ran = [r for r in reference if r is not None]
        summary = end_to_end(ran)
        summary["setup_s"] = setup_s
        summary["peak_rss_mb"] = peak_rss_mb()
        report("untraced reference pass", reference_workload, ran, summary, 1)
        traced_rate, untraced_rate = paired_rates(results, reference)
        correct = op_counts(ran)["errors"] == 0
        metrics = tracer.per_layer(traced_rate, untraced_rate)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        print(f"spans written to {path.relative_to(REPO)}")
        for name, entry in metrics.items():
            print(f"  {name:<38} {entry['value']:>14.6g} {entry['unit']}")
    else:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            workload = None  # let the previous engine go before the next
            workload, seconds = set_up(make, gauge)
            setup_times.append(seconds)
        results = timed_pass(workload, gauge, args.seconds, workload.passes)
        summary = end_to_end(results)
        summary["setup_s"] = statistics.median(setup_times)
        summary["peak_rss_mb"] = peak_rss_mb()
        report("untraced pass", workload, results, summary, len(setup_times))
        metrics = {
            name: {"value": summary[name], "unit": unit}
            for name, unit in (
                ("setup_s", "s"),
                ("ops_per_s", "ops/s"),
                ("peak_rss_mb", "MB"),
            )
        }
        correct = True
    counts = op_counts(results)
    correct = correct and counts["errors"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["errors"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
