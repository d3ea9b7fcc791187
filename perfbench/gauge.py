"""CPU time rescaled to a reference machine speed.

On a shared virtual machine the CPU does not run at one speed: clock
frequency and neighbours on the same core change how much work a CPU
second does, by up to 2x from one second to the next.  CPU time alone
therefore moves with the host, not with the program.

A Gauge measures the machine's speed while an op runs.  A CPU-time
interval timer interrupts the op every PERIOD_S and runs a small fixed
kernel in the signal handler; the kernel's CPU time, against
REF_KERNEL_S, is the machine's speed at that moment.  A few kernel runs
just before the op cover ops shorter than one period.  The kernel does
the kind of work the engine does (big integers, Fractions, dicts), so
that it slows as the engine does.  The op's reference seconds are its
own CPU time (without the kernels) times REF_KERNEL_S over the mean
kernel time: the seconds the op would take on a machine that runs the
kernel in REF_KERNEL_S.

The garbage collector is held off while the kernel runs, so that no
sample pays for a collection of the op's garbage.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# The kernel took 0.29 to 0.55 ms on the 2-vCPU Xeon VM this was
# written on; a value near its slow end makes a reference second about
# a CPU second there.  It fixes the unit of every reported time.
REF_KERNEL_S = 5.0e-4
PERIOD_S = 0.02  # CPU seconds between samples
PRIME_RUNS = 3  # kernel runs before each measured stretch
# A capped stretch also ends after this many times its cap in wall
# seconds, so that an op that waits instead of computing cannot hang.
WALL_BACKSTOP = 3.0

_X = 3 ** 400


def kernel():
    """Big-integer, Fraction and dict work, like the engine's own mix."""
    acc, f, table = 1, Fraction(0), {}
    for i in range(1, 60):
        acc = (acc * _X + i) % (_X - i)
        f = (f + Fraction(i % 17, i % 13 + 1)) / 2
        table[i & 31] = table.get(i & 31, 0) + (acc & 0xFFFF)
    return acc, f, table


def kernel_seconds() -> float:
    """CPU seconds of one kernel run, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.thread_time()
    kernel()
    seconds = time.thread_time() - start
    if enabled:
        gc.enable()
    return seconds


class OverCap(BaseException):
    """Raised inside an op when its cap runs out.

    A BaseException, so that no `except Exception` in the engine can
    swallow it.
    """


class Gauge:
    """Measures one stretch of work at a time: start(), then stop().

    With a cap, the signal handler raises OverCap in the stretch once
    its reference seconds pass the cap, or once WALL_BACKSTOP times the
    cap has passed on the wall clock.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._running = False
        self._cap_s = None
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.signal(signal.SIGALRM, self._backstop)

    def _sample(self, signum, frame):
        if not self._running:
            return
        seconds = kernel_seconds()
        self.samples.append(seconds)
        self._sampled += seconds
        if self._cap_s is not None and self._reference_now() > self._cap_s:
            self._cap_s = None  # raise once
            raise OverCap()

    def _backstop(self, signum, frame):
        if self._running and self._cap_s is not None:
            self._cap_s = None
            raise OverCap()

    def _reference_now(self) -> float:
        cpu = time.thread_time() - self._start - self._sampled
        return reference_seconds(cpu, self.samples)

    def start(self, cap_s: float | None = None):
        self.samples = [kernel_seconds() for _ in range(PRIME_RUNS)]
        self._sampled = 0.0
        self._cap_s = cap_s
        self._start = time.thread_time()
        self._running = True
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)
        if cap_s is not None:
            signal.setitimer(signal.ITIMER_REAL, WALL_BACKSTOP * cap_s)

    def stop(self) -> tuple[float, float]:
        """(CPU seconds, reference seconds) of the work since start()."""
        self._running = False  # a signal still on its way does nothing
        end = time.thread_time()
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        cpu = max(end - self._start - self._sampled, 0.0)
        return cpu, reference_seconds(cpu, self.samples)


def reference_seconds(cpu_s: float, kernel_samples) -> float:
    """CPU seconds at the speed the kernel samples show, in reference seconds."""
    mean = sum(kernel_samples) / len(kernel_samples)
    return cpu_s * REF_KERNEL_S / mean
