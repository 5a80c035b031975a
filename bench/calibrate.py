"""Host-speed reference for the benchmark's timings.

On a shared host the same fit runs 1.3 s in one minute and 2.1 s a few
minutes later: other tenants change how fast this process's CPU runs.
A fixed kernel timed right before and after each timed step measures
that speed; dividing by it leaves the program's own cost. The kernel is
an online SOM update loop like the program's trainer (an interpreted
loop issuing small numpy calls), written here so that no program change
alters it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

ITERATIONS = 12_000
# the kernel's median time on the 2-vCPU host the benchmark was sized
# on; normalised timings are seconds on a host of that speed
REFERENCE_S = 0.13
# kernel samples after a step: one per SAMPLE_EVERY seconds of it, at
# least MIN_SAMPLES
SAMPLE_EVERY = 1.0
MIN_SAMPLES = 2


def kernel_seconds() -> float:
    """Time one run of the fixed reference kernel."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(256, 8))
    w = rng.normal(size=(12, 8))
    grid = np.arange(12.0)
    t = time.perf_counter()
    for i in range(ITERATIONS):
        d = x[i % 256] - w
        c = int(np.argmin((d * d).sum(axis=1)))
        h = np.exp((grid - c) ** 2 * -0.5)
        w += (0.01 * h)[:, None] * d
    return time.perf_counter() - t


class Clock:
    """Times steps at the reference speed.

    After each step the kernel runs once per ``SAMPLE_EVERY`` seconds of
    that step, at least ``MIN_SAMPLES`` times; a step is normalised by
    the median of the kernel times just before and just after it. A
    single kernel time varies by about 20 %: with one sample on each
    side, normalised 2.7-s repetitions varied by 10 %, with two by 8 %.
    """

    def __init__(self):
        kernel_seconds()  # warm-up: first-call allocations
        self.last = [kernel_seconds() for _ in range(MIN_SAMPLES)]
        self.kernel = list(self.last)

    def normalised(self, seconds: float) -> float:
        """Sample the kernel after a step of ``seconds`` and return the
        step's time at the reference speed."""
        after = [kernel_seconds()
                 for _ in range(max(MIN_SAMPLES, math.ceil(seconds / SAMPLE_EVERY)))]
        speed = statistics.median(self.last + after)
        self.last = after
        self.kernel += after
        return seconds * REFERENCE_S / speed
