"""Host-speed probe: times measured on a shared host, scaled to a calm core.

Other tenants of the host slow this machine's cores by up to twofold, in
spells of a second to minutes.  Thread CPU time slows as much as wall time,
so no clock of the process tells the slowdown apart from the program's own
work, and the fastest of a run's repeats is slow too when the whole run
falls in a busy spell.

While `Probe.running()` is active, a SIGALRM timer interrupts the main
thread every INTERVAL_S and runs `kernel()`: a fixed pure-Python loop of
about 0.2 ms that calls no jtcalc code, so no change to jtcalc changes its
speed.  Its duration divided by REFERENCE_S, about its duration on a calm
core, is the slowdown at that moment.  `Probe.scaled(t0, t1)` turns the wall
seconds of one interval into calm-core seconds: the kernel runs inside it
taken out, then divided by the mean slowdown of the kernel runs within
WINDOW_S of the interval.  The kernel is pure Python so that it imports
nothing, and a set-up can be timed with it from before `import jtcalc`.
"""

from __future__ import annotations

import bisect
import math
import signal
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.02
WINDOW_S = 0.1
KERNEL_STEPS = 800
# a unit only, the same for every commit: chosen on a 2.1 GHz Xeon VM with
# Python 3.11 so that the scaled sweep times read as the wall times of a
# calm period there (3.0 s a pass); kernel() alone in a loop takes 1.9e-4
REFERENCE_S = 2.2e-4


def kernel():
    """Fixed interpreter work: integer arithmetic mod p, list, dict and tuple ops."""
    acc = 1
    row = [0] * 16
    seen = {}
    for i in range(KERNEL_STEPS):
        acc = (acc * 31 + i) % 10007
        row[i & 15] = (row[(i + 3) & 15] + acc) % 7
        seen[(i & 31, acc & 7)] = acc
    return acc + sum(row) + len(seen)


class Probe:
    """Samples the host's speed while a timed stretch of work runs."""

    def __init__(self):
        self.starts = []        # perf_counter() at the start of each kernel run
        self.durations = []     # its seconds
        self.slowdowns = []     # its seconds / REFERENCE_S

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        kernel()
        took = perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(took)
        self.slowdowns.append(took / REFERENCE_S)

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S inside the block; samples start afresh."""
        for samples in (self.starts, self.durations, self.slowdowns):
            samples.clear()
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            self._tick()        # a first sample, so that a short block has one
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    def scaled(self, t0, t1):
        """Calm-core seconds of the work done in the wall-clock interval [t0, t1]."""
        # a kernel run that starts inside the interval also ends inside it:
        # the handler returns before the interrupted code reads the clock
        inside = self.durations[bisect.bisect_left(self.starts, t0):bisect.bisect_left(self.starts, t1)]
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.slowdowns[lo:hi] or self.slowdowns
        return (t1 - t0 - math.fsum(inside)) * len(near) / math.fsum(near)
