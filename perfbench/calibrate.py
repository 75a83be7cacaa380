"""The reference kernel that wall_cal is measured in.

The box this benchmark runs on is a few cores of a shared host, and its
speed swings by up to 1.7x over seconds to minutes with its neighbours'
load; CPU time swings with wall time, so the load is not visible as steal.
A small fixed kernel slows down with it.  While a step runs, a timer
interrupts it every PERIOD_S seconds to time the kernel once, and the
kernel also runs just before and just after the step.  The step's wall time,
less the interruptions, divided by the kernel's mean time over those runs,
is its length in kernel units, which the host's state moves much less than
it moves seconds.

The kernel is an interpreted loop over dicts, sets and tuples and a small
numpy sort: compute-bound work that fits in cache.  Difam's interpreted
steps (lifting, the closure scan, parsing) slow down with the host as it
does.  Its large numpy steps, partly bound by memory and page faults, slow
down less, so their wall_cal swings somewhat the other way; a kernel that
also streamed memory tracked them a little better and the interpreted steps
much worse.  The kernel uses neither difam nor the seed, so a change to the
program cannot change it.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

PERIOD_S = 0.05
EDGE_RUNS = 3  # kernel runs before and after each step

_DATA = np.random.default_rng(0).integers(0, 1 << 30, size=8_000)


def _kernel() -> float:
    """One timed run of the kernel: about 1 ms on one core of the box.

    An untimed run goes first, so that the kernel's data is back in cache
    however much of it the step has evicted: the timed run measures the
    core's speed, not the program's memory traffic.  The collector is
    off meanwhile, so that a collection of the step's objects, which the
    kernel's allocations could set off, is not timed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def _work() -> None:
    np.sort(_DATA)
    counts: dict = {}
    seen = set()
    for i in range(3_000):
        key = (i * 7919) % 10_007
        counts[key] = counts.get(key, 0) + 1
        seen.add((key, i & 7))


class StepClock:
    """Times steps in seconds and in kernel units.

    `time(fn)` returns fn's result, its wall time less the kernel runs that
    interrupted it, and that time divided by the kernel's mean time.  With
    `sample=False` the kernel runs only at the step's edges: the traced runs
    use that, so that no kernel run lands inside a span.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.kernel_s: list[float] = []
        self._in_step: list[float] = []
        self._stolen = 0.0
        for _ in range(EDGE_RUNS):
            _kernel()  # warm-up: page faults and first-call costs

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self._in_step.append(_kernel())
        self._stolen += time.perf_counter() - start

    def time(self, fn):
        samples = [_kernel() for _ in range(EDGE_RUNS)]
        self._in_step, self._stolen = [], 0.0
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.monotonic()
        try:
            result = fn()
        finally:
            took = time.monotonic() - start
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        took -= self._stolen
        samples += self._in_step + [_kernel() for _ in range(EDGE_RUNS)]
        self.kernel_s += samples
        return result, took, took / (sum(samples) / len(samples))
