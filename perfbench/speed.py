"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared 2-core VM the speed of a core drifts: a call ran up to 1.9x
slower in phases lasting from under a second to many minutes, in CPU time
as much as in wall time, so taking the fastest repetition does not help
once a whole run falls in a slow phase.  The kernel below does a fixed mix
of interpreter work and small numpy calls, like the program's own inner
loops, and slows by about as much.  A call's wall time divided by the
kernel's time next to it holds steady across those phases; multiplied by
REFERENCE_S it reads as seconds at a reference speed.

The kernel is benchmark code, so a change to the program cannot move it.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the kernel's time in a quiet phase of a 2-core Intel Xeon VM
# (CPython 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.001
WARMUP = 5
READS = 3  # kernel runs per reading; a reading is their median

_DESCENDING = np.arange(300, 0, -1, dtype=float)


def kernel() -> int:
    s = 0
    for i in range(8000):
        s += (i * i) % 7
    for _ in range(30):
        order = np.argsort(_DESCENDING, kind="stable")
        s += int(np.cumsum(_DESCENDING[order]).argmax())
    return s


def time_kernel() -> float:
    """The median time of READS back-to-back kernel runs."""
    times = []
    for _ in range(READS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Gauge:
    """Times the kernel after each measured call and scales the call by
    the mean of the kernel times just before and just after it."""

    def __init__(self):
        for _ in range(WARMUP):
            kernel()
        self.last = time_kernel()
        self.samples: list[float] = []

    def start(self) -> None:
        """Re-read the kernel right before a call when other work has run
        since the last reading."""
        self.last = time_kernel()

    def scale(self, seconds: float) -> float:
        """Reference seconds of a call that took ``seconds`` of wall time
        and has just returned."""
        before, self.last = self.last, time_kernel()
        self.samples.append(self.last)
        return seconds / ((before + self.last) / 2) * REFERENCE_S
