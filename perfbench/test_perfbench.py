"""Tests of the benchmark's own arithmetic.

Run from the repository root:  python3 -m pytest perfbench
"""

import time
import types

import pytest

from gauge import PRIME_RUNS, REF_KERNEL_S, Gauge, OverCap, reference_seconds
from spans import ROOT, Tracer, calls_under, layer_times
from stats import ERROR, OK, OVER_CAP, OpResult, end_to_end, op_counts, percentile


def test_percentile_interpolates_between_ranks():
    # n=4: rank q/100 * 3 on the sorted sample
    sample = [4.0, 1.0, 3.0, 2.0]
    assert percentile(sample, 0) == 1.0
    assert percentile(sample, 50) == 2.5
    assert percentile(sample, 100) == 4.0
    # n=5: the median is the middle sample, p95 sits at rank 3.8
    five = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(five, 50) == 30.0
    assert percentile(five, 95) == pytest.approx(48.0)
    # n=1: every percentile is the one sample
    assert percentile([7.5], 50) == 7.5
    assert percentile([7.5], 99) == 7.5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_over_cap_op_is_failed_undecided_and_costs_its_cap():
    results = [
        OpResult("a", 1.0, OK, decided=True),
        OpResult("b", 2.0, OK, decided=True),
        OpResult("c", 3.0, OK, decided=False),
        OpResult("d", 40.0, OVER_CAP),
    ]
    summary = end_to_end(results)
    assert summary["attempted"] == 4
    assert summary["completed"] == 3
    assert summary["decided_frac"] == 0.5
    assert summary["failed_frac"] == 0.25
    assert summary["over_cap"] == 1
    # an over-cap op is not a wrong result
    assert summary["errors"] == 0
    assert summary["ops_per_s"] == 3 / 46.0
    # latency percentiles cover finished ops only
    assert summary["op_s.samples"] == 3
    assert summary["op_s.p50"] == 2.0
    assert summary["op_s.max"] == 3.0


def test_errors_and_failed_checks_count_as_errors():
    results = [
        OpResult("a", 1.0, OK, decided=True, failures=["witness does not re-evaluate"]),
        OpResult("b", 1.0, ERROR),
        OpResult("c", 1.0, OK, decided=True),
    ]
    counts = op_counts(results)
    assert counts["errors"] == 2
    assert counts["failed"] == 2
    assert counts["decided"] == 2


def test_weighted_ops_count_points_and_divide_latency():
    results = [
        OpResult("json", 6.0, OK, weight=3000),
        OpResult("csv", 4.0, OK, weight=20000),
    ]
    summary = end_to_end(results)
    assert summary["attempted"] == 23000
    assert summary["ops_per_s"] == 2300.0
    assert summary["op_s.p50"] == pytest.approx((6.0 / 3000 + 4.0 / 20000) / 2)


def test_throughput_pools_every_pass():
    # three passes of two ops: 2 ops in 1 s, 2 ops in 2 s, 2 ops in 8 s
    results = [
        OpResult(label, seconds, OK, pass_index)
        for pass_index, seconds in enumerate((0.5, 1.0, 4.0))
        for label in ("a", "b")
    ]
    summary = end_to_end(results)
    assert summary["passes"] == 3
    assert summary["ops_per_s"] == 6 / 11.0
    # per-op latency pools every op: sample 0.5, 0.5, 1, 1, 4, 4
    assert summary["op_s.samples"] == 6
    assert summary["op_s.p50"] == 1.0


def test_self_time_from_nested_spans():
    # op [0,10] > A [1,9] > B [2,5] > A [3,4];  A [1,9] > B [6,8]
    name = ["op", "A", "B", "A", "B"]
    start = [0.0, 1.0, 2.0, 3.0, 6.0]
    end = [10.0, 9.0, 5.0, 4.0, 8.0]
    parent = [ROOT, 0, 1, 2, 1]
    times = layer_times(name, start, end, parent)
    assert times["op"] == {"calls": 1, "s": 10.0, "self_s": 2.0}
    # the inner A sits inside the outer one, so busy time counts 8 s once
    assert times["A"] == {"calls": 2, "s": 8.0, "self_s": 4.0}
    assert times["B"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
    assert calls_under(name, parent, "A", "B") == 1
    assert calls_under(name, parent, "B", "A") == 2
    assert calls_under(name, parent, "op", "A") == 0


def test_tracer_records_parents_and_restores_originals():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * mod.leaf(x)
    original_leaf = mod.leaf
    tracer = Tracer()

    def count_result(counters, result):
        counters["results"] += result

    tracer.span(mod, "outer", "outer", count_result)
    tracer.span(mod, "leaf", "leaf")
    tracer.op_id = 7
    assert mod.outer(2) == 9
    tracer.uninstall()
    assert mod.leaf is original_leaf

    names = [tracer.names[i] for i in tracer.name]
    assert names == ["outer", "leaf", "leaf"]
    assert list(tracer.parent) == [ROOT, 0, 0]
    assert list(tracer.op) == [7, 7, 7]
    assert tracer.counters["results"] == 9
    times = layer_times(names, tracer.start, tracer.end, tracer.parent)
    assert times["leaf"]["calls"] == 2
    assert times["outer"]["self_s"] <= times["outer"]["s"]


def test_recover_drops_a_half_written_span():
    tracer = Tracer()
    mod = types.SimpleNamespace(f=lambda: None)
    tracer.span(mod, "f", "f")
    mod.f()
    # a cap that fires between two appends leaves the columns uneven
    tracer.name.append(0)
    tracer.parent.append(0)
    tracer._stack.append(1)
    tracer.recover()
    assert len(tracer.name) == len(tracer.start) == len(tracer.end) == 1
    assert tracer._stack == [ROOT]


def test_reference_seconds_rescale_by_the_mean_kernel_time():
    # kernels at the reference speed leave CPU seconds as they are
    assert reference_seconds(2.0, [REF_KERNEL_S] * 3) == pytest.approx(2.0)
    # a machine running the kernel at half speed did half the work per second
    assert reference_seconds(2.0, [2 * REF_KERNEL_S] * 4) == pytest.approx(1.0)
    # the mean, not the median, of the samples sets the speed
    samples = [REF_KERNEL_S, REF_KERNEL_S, 4 * REF_KERNEL_S]
    assert reference_seconds(3.0, samples) == pytest.approx(1.5)


def _spin(cpu_seconds):
    end = time.thread_time() + cpu_seconds
    while time.thread_time() < end:
        sum(range(100))


def test_gauge_samples_during_work_and_leaves_out_its_kernels():
    gauge = Gauge()
    before = time.thread_time()
    gauge.start()
    _spin(0.2)
    cpu, ref = gauge.stop()
    total = time.thread_time() - before
    in_stretch = gauge.samples[PRIME_RUNS:]
    assert len(in_stretch) >= 3
    assert cpu == pytest.approx(0.2, abs=0.05)
    assert cpu < total - sum(in_stretch) + 1e-9
    assert ref == pytest.approx(reference_seconds(cpu, gauge.samples))


def test_gauge_raises_over_cap_once_reference_time_passes_the_cap():
    gauge = Gauge()
    cap = 0.05
    gauge.start(cap)
    with pytest.raises(OverCap):
        _spin(5.0)
    cpu, ref = gauge.stop()
    assert cap <= ref < cap + 0.2


def test_gauge_wall_backstop_ends_a_stretch_that_waits():
    gauge = Gauge()
    gauge.start(0.02)
    start = time.perf_counter()
    with pytest.raises(OverCap):
        time.sleep(5.0)  # uses no CPU, so only the wall clock can end it
    gauge.stop()
    assert time.perf_counter() - start < 1.0
