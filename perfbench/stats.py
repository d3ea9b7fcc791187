"""Arithmetic of the benchmark's end-to-end metrics.

Kept free of any engine import so that the tests in this directory can
check it on hand-made inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

OK = "ok"
OVER_CAP = "over_cap"
ERROR = "error"


@dataclass
class OpResult:
    """One timed op and what its checks found.

    seconds is the op's time in reference seconds (see gauge.py); cpu_s
    and wall_s are its CPU and wall-clock seconds, printed and never
    used in a metric.  weight is the number of user-visible ops the call
    stands for: one slope set or query, or the number of points an
    export wrote.
    """

    label: str
    seconds: float
    outcome: str = OK
    pass_index: int = 0
    weight: int = 1
    decided: bool = False
    failures: list[str] = field(default_factory=list)
    cert_bits: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0

    @property
    def check_failed(self) -> bool:
        return bool(self.failures)


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation between ranks.

    Matches numpy's default method: rank q/100 * (n - 1) on the sorted
    sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def op_counts(results: list[OpResult]) -> dict[str, int]:
    """Op counts in user-visible ops.

    An over-cap op did not finish: it is neither completed nor decided,
    and counts as failed in failed_frac.  `errors` holds ops that raised
    or failed a correctness check, the count a wrong program would move.
    """
    attempted = sum(r.weight for r in results)
    completed = sum(r.weight for r in results if r.outcome == OK)
    decided = sum(r.weight for r in results if r.outcome == OK and r.decided)
    over_cap = sum(r.weight for r in results if r.outcome == OVER_CAP)
    errors = sum(
        r.weight for r in results if r.outcome == ERROR or r.check_failed
    )
    failed = sum(
        r.weight
        for r in results
        if r.outcome != OK or r.check_failed
    )
    return {
        "attempted": attempted,
        "completed": completed,
        "decided": decided,
        "over_cap": over_cap,
        "errors": errors,
        "failed": failed,
    }


def end_to_end(results: list[OpResult]) -> dict:
    """Throughput, per-op latency and outcome shares of the timed passes.

    ops_per_s is completed ops over the op time of every pass, in which
    an over-cap op costs its full cap.  Pooling the passes weighs every
    op by its time; the reference seconds of gauge.py already take out
    the machine's changes of speed that a median over passes would
    otherwise have to absorb.  Per-op latency is the time of the call
    divided by its weight.
    """
    counts = op_counts(results)
    attempted = counts["attempted"]
    seconds = sum(r.seconds for r in results)
    per_op = [r.seconds / r.weight for r in results if r.outcome == OK]
    out = {
        "ops_per_s": counts["completed"] / seconds if seconds else 0.0,
        "passes": len({r.pass_index for r in results}),
        "op_s.p50": percentile(per_op, 50) if per_op else float("nan"),
        "op_s.max": max(per_op) if per_op else float("nan"),
        "op_s.samples": len(per_op),
        "decided_frac": counts["decided"] / attempted if attempted else 0.0,
        "failed_frac": counts["failed"] / attempted if attempted else 0.0,
        "cert_bits.max": max((r.cert_bits for r in results), default=0),
    }
    out.update(counts)
    return out
