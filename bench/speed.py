"""Scale measured times to a fixed machine speed.

On a shared two-core box the same work runs up to twice as slow for tens of
seconds at a time, so raw times of whole runs differ by 15-35% between runs
of the same code and seed.  While it measures, the benchmark therefore runs a
fixed reference workload from a CPU-time timer, every PROBE_EVERY_S of CPU
time, also in the middle of a long solve.  The time spent in these probes
is subtracted from every measured interval (see Speed.clock), and each
interval is then multiplied by

    REFERENCE_S / (mean probe time within WINDOW_S of the interval).

The reference calls nothing in rbsc, so a change to the program cannot
change its cost; it only tracks how fast the machine runs while the program
does.  With a fixed rbsc workload alternating with the reference, the
coefficient of variation over ten windows of ~14 s fell from 0.12 to 0.011
after scaling.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction

PROBE_EVERY_S = 0.04  # CPU seconds between probes; a probe takes ~2 ms
WINDOW_S = 0.5
# Mean probe time on an unloaded machine of the kind the benchmark was
# defined on (2-core x86-64 VM, Python 3.11): scaled times read as
# seconds of that machine.
REFERENCE_S = 0.002


def reference_work() -> int:
    """Fixed pure-Python work shaped like the solvers' inner loops:
    frozenset intersections, dict updates keyed by tuples, Fraction
    arithmetic and recursion that builds tuples."""
    sets = [frozenset((i * j) % 97 for j in range(1, 7)) for i in range(70)]
    seen: dict[tuple[int, int], int] = {}
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            key = (min(a), len(a & b))
            seen[key] = seen.get(key, 0) + 1
    points = [Fraction(i * 7 % 13, 1 + i % 5) for i in range(40)]
    total = sum(p * q - q for p, q in zip(points, reversed(points)))

    def subsets(depth: int, prefix: tuple) -> tuple:
        if depth == 0:
            return (prefix,)
        return subsets(depth - 1, prefix + (depth,)) + subsets(depth - 1, prefix)

    return len(seen) + len(subsets(8, ())) + total.denominator


class Speed:
    """Probes the machine's speed from a SIGPROF timer while sampling."""

    def __init__(self):
        self.stamps: list[float] = []  # perf_counter at each probe's start
        self.durations: list[float] = []
        self.probe_total = 0.0
        self._busy = False

    def _probe(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference_work()
            spent = time.perf_counter() - start
            self.stamps.append(start)
            self.durations.append(spent)
            self.probe_total += spent
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def clock(self) -> float:
        """perf_counter with the time spent in probes taken out."""
        return time.perf_counter() - self.probe_total

    def scale(self, start: float, end: float) -> float:
        """Factor turning net time measured in [start, end] (perf_counter
        readings) into reference time."""
        lo = bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect_right(self.stamps, end + WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return REFERENCE_S * len(near) / sum(near)
