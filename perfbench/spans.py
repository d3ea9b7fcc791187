"""Span tracing installed from the benchmark's own files.

A traced pass replaces the public entry points of the engine's layers
(module functions and class methods) with wrappers.  Every call records
a span: name, start, end, parent span and op id.  Spans live in compact
arrays in memory, a few dozen bytes each, and are written out when the
run ends.  Counters that need a call's arguments or result, such as
lattice hits or points generated, are taken at the same boundaries.
Self time is computed afterwards from the spans alone.
"""

from __future__ import annotations

import array
import functools
import gzip
import json
import time
from collections import defaultdict
from pathlib import Path

ROOT = -1  # parent of a span opened outside any other span


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("H")
        self.parent = array.array("l")
        self.op = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack = [ROOT]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[int, str], object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name, on_result):
        nid = self._name_id(name)
        clock = time.perf_counter
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counters, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        # one wrapper per function, however many modules import it by name
        key = (id(original), make.__name__)
        if key not in self._wrappers:
            self._wrappers[key] = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrappers[key])

    def span(self, owner, attr, name, on_result=None):
        """Record a span for every call of owner.attr."""

        def make_span(fn):
            return self._span_wrapper(fn, name, on_result)

        make_span.__name__ = f"span:{name}"
        self._patch(owner, attr, make_span)

    def count(self, owner, attr, key):
        """Count calls of owner.attr without timing them."""

        def make_count(fn):
            return self._count_wrapper(fn, key)

        make_count.__name__ = f"count:{key}"
        self._patch(owner, attr, make_count)

    def recover(self):
        """Repair the columns after an op was cut off by its cap.

        The cap's exception can land between two appends of one span or
        before a wrapper's try block; drop the half-written span and
        close any span left open.
        """
        length = min(map(len, (self.name, self.parent, self.op, self.start, self.end)))
        for column in (self.name, self.parent, self.op, self.start, self.end):
            del column[length:]
        now = time.perf_counter()
        for i in range(length):
            if self.end[i] == 0.0:
                self.end[i] = now
        self._stack[:] = [ROOT]

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def columns(self):
        """The span columns layer_times and calls_under read."""
        return self.name, self.start, self.end, self.parent

    def name_of(self, name: str) -> int:
        return self._name_ids.get(name, -1)

    def write(self, path: Path):
        """Write the spans as gzipped JSON lines: a header, then one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            header = {"fields": ["name", "start", "end", "parent", "op"]}
            fh.write(json.dumps(header) + "\n")
            names = self.names
            for n, s, e, p, o in zip(
                self.name, self.start, self.end, self.parent, self.op
            ):
                fh.write(f'["{names[n]}",{s!r},{e!r},{p},{o}]\n')


def layer_times(name, start, end, parent) -> dict:
    """Calls, busy time and self time per span name.

    The four sequences are span columns in opening order, so a parent
    index is always smaller than its children's.  Busy time `s` sums the
    spans with no ancestor of the same name, so recursion is not counted
    twice.  Self time `self_s` is a span's duration minus the durations
    of its direct children.  Keys are the values found in `name`.
    """
    child_time = [0.0] * len(start)
    for s, e, p in zip(start, end, parent):
        if p != ROOT:
            child_time[p] += e - s
    out: dict = {}
    for i, (n, s, e, p) in enumerate(zip(name, start, end, parent)):
        rec = out.get(n)
        if rec is None:
            rec = out[n] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        duration = e - s
        rec["calls"] += 1
        rec["self_s"] += duration - child_time[i]
        up = p
        while up != ROOT and name[up] != n:
            up = parent[up]
        if up == ROOT:
            rec["s"] += duration
    return out


def calls_under(name, parent, target, ancestor) -> int:
    """Number of `target` spans that have an `ancestor` span above them."""
    total = 0
    for n, p in zip(name, parent):
        if n != target:
            continue
        up = p
        while up != ROOT and name[up] != ancestor:
            up = parent[up]
        if up != ROOT:
            total += 1
    return total


def _lattice_result(counters, combo):
    if combo is not None:
        counters["linalg.lattice.hits"] += 1
        bits = max((abs(c).bit_length() for c in combo), default=0)
        if bits > counters["linalg.lattice.combo_bits.max"]:
            counters["linalg.lattice.combo_bits.max"] = bits


def _generate_result(counters, levels):
    counters["construction.points"] += len(levels[-1]) if levels else 0


def _ring_result(counters, report):
    counters["ring_analysis.frame_scan.frames"] += len(report.frame_scan)


# (metric, unit) in the order they are reported; see README.md for the
# end-to-end metric and workload each one should move.
PER_LAYER = (
    ("linalg.lattice.add.calls", "count"),
    ("linalg.lattice.add.s", "s"),
    ("linalg.lattice.membership.calls", "count"),
    ("linalg.lattice.membership.s", "s"),
    ("linalg.lattice.membership.hit_ratio", "ratio"),
    ("linalg.lattice.combo_bits.max", "bits"),
    ("linalg.rowspace.add.calls", "count"),
    ("linalg.rowspace.add.s", "s"),
    ("linalg.rowspace.coordinates.calls", "count"),
    ("linalg.rowspace.coordinates.s", "s"),
    ("cyclotomic.mul.calls", "count"),
    ("cyclotomic.mul.s", "s"),
    ("cyclotomic.inv.calls", "count"),
    ("cyclotomic.inv.s", "s"),
    ("cyclotomic.sign.calls", "count"),
    ("cyclotomic.sign.s", "s"),
    ("cyclotomic.interval.calls", "count"),
    ("cyclotomic.interval.s", "s"),
    ("construction.generate.s", "s"),
    ("construction.generate.self_s", "s"),
    ("construction.points", "count"),
    ("construction.points_per_mul", "ratio"),
    ("export.json.self_s", "s"),
    ("export.csv.self_s", "s"),
    ("ring_analysis.ring_check.calls", "count"),
    ("ring_analysis.ring_check.s", "s"),
    ("ring_analysis.membership.calls", "count"),
    ("ring_analysis.membership.s", "s"),
    ("ring_analysis.membership.self_s", "s"),
    ("ring_analysis.membership.candidates", "count"),
    ("ring_analysis.frame_scan.frames", "count"),
    ("ring_analysis.lattice_builds", "count"),
    ("ring_analysis.field_builds", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.ops_per_s", "ops/s"),
    ("trace.overhead_ops_per_s", "ops/s"),
    ("trace.overhead_frac", "ratio"),
)


class EngineTracer(Tracer):
    """Spans and counters at the public entry points of the engine's layers."""

    _engine = None

    def install(self, eng):
        if eng is not self._engine:
            # wrappers are cached by id(); a new engine may reuse old ids
            self._wrappers.clear()
            self._engine = eng
        cls = eng.cyclotomic.CyclotomicReal
        self.span(cls, "__mul__", "cyclotomic.mul")
        self.span(cls, "__rmul__", "cyclotomic.mul")
        self.span(cls, "inv", "cyclotomic.inv")
        self.span(cls, "sign", "cyclotomic.sign")
        self.span(cls, "interval", "cyclotomic.interval")

        lattice, rowspace = eng.linalg.IntegerLattice, eng.linalg.RowSpace
        self.span(lattice, "add", "linalg.lattice.add")
        self.span(lattice, "membership", "linalg.lattice.membership", _lattice_result)
        self.span(rowspace, "add", "linalg.rowspace.add")
        self.span(rowspace, "coordinates", "linalg.rowspace.coordinates")
        self.count(lattice, "__init__", "ring_analysis.lattice_builds")
        self.count(rowspace, "__init__", "ring_analysis.field_builds")

        ra = eng.ring_analysis
        # every module that imported a function by name holds its own reference
        for owner in (eng.construction, eng.cli, eng.pkg):
            self.span(owner, "generate", "construction.generate", _generate_result)
        for owner in (eng.export, eng.cli, eng.pkg):
            self.span(owner, "json_text", "export.json")
        for owner in (eng.export, eng.cli):
            self.span(owner, "csv_text", "export.csv")
        for owner in (ra, eng.cli, eng.pkg):
            self.span(owner, "ring_check", "ring_analysis.ring_check", _ring_result)
            self.span(owner, "membership_in_MR", "ring_analysis.membership")
        self.count(ra._MonomialLattice, "membership", "ring_analysis.candidates")
        self.span(eng.cli, "main", "cli.main")

    def per_layer(self, traced_ops_per_s: float, untraced_ops_per_s: float) -> dict:
        """Every PER_LAYER metric, zero for a layer the pass never entered."""
        ids = self.names
        times = {ids[k]: v for k, v in layer_times(*self.columns()).items()}
        values = {}
        for name, rec in times.items():
            for field, value in rec.items():
                values[f"{name}.{field}"] = value
        values.update(self.counters)
        mul, generate = self.name_of("cyclotomic.mul"), self.name_of("construction.generate")
        muls_in_generate = calls_under(self.name, self.parent, mul, generate)
        values["construction.points_per_mul"] = (
            values.get("construction.points", 0) / muls_in_generate
            if muls_in_generate else 0.0
        )
        lattice_calls = values.get("linalg.lattice.membership.calls", 0)
        values["linalg.lattice.membership.hit_ratio"] = (
            values.get("linalg.lattice.hits", 0) / lattice_calls if lattice_calls else 0.0
        )
        queries = values.get("ring_analysis.membership.calls", 0)
        values["ring_analysis.membership.candidates"] = (
            values.get("ring_analysis.candidates", 0) / queries if queries else 0.0
        )
        values["trace.ops_per_s"] = traced_ops_per_s
        values["trace.overhead_ops_per_s"] = traced_ops_per_s - untraced_ops_per_s
        values["trace.overhead_frac"] = (
            1 - traced_ops_per_s / untraced_ops_per_s if untraced_ops_per_s else 0.0
        )
        return {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER
        }
