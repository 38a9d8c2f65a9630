"""Host-speed reference for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.8x over stretches of seconds to minutes, for every process alike: the
same pure-Python job, and process CPU time with it, slows down and speeds
up together. A fixed reference kernel measures that speed, and end-to-end
times are reported scaled to a host on which one kernel run takes
``REF_S`` seconds:

    reported = measured * REF_S / mean kernel time while it was measured

The kernel is benchmark code on fixed data, so a change to cmstruct never
changes it; it does the same kind of work as the library (dict and set
adjacency, a depth-first search, a sort, a greedy matching) so that host
slow-downs hit both alike.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

REF_S = 4e-4
SAMPLE_RUNS = 3

_rng = random.Random(20180112)
_EDGES = [(a, b) for a in range(64) for b in range(a + 1, 64) if _rng.random() < 0.2]


def kernel() -> tuple[int, int]:
    """Components and a greedy matching of a fixed 64-vertex graph."""
    adj: dict[int, set[int]] = {}
    for a, b in _EDGES:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen: set[int] = set()
    components = []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        stack, component = [start], []
        while stack:
            v = stack.pop()
            component.append(v)
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        components.append(frozenset(component))
    mate: dict[int, int] = {}
    for a, b in sorted(_EDGES, key=lambda e: (e[1] - e[0], e)):
        if a not in mate and b not in mate:
            mate[a], mate[b] = b, a
    return len(components), len(mate)


def sample() -> float:
    """Seconds per kernel run now: the median of a few back-to-back runs,
    so that one interrupted run does not set the scale."""
    times = []
    for _ in range(SAMPLE_RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Samples the host speed on an interval timer, also inside long jobs.

    SIGALRM fires every ``every_s`` seconds of wall time; Python runs its
    handler in the main thread between two bytecodes of whatever is running,
    so a multi-second search is sampled throughout. ``now()`` is a clock
    that stands still while a sample is taken: intervals measured on it
    leave the sampling out.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.at: list[int] = []  # now() at each sample
        self.kernel_s: list[float] = []
        self.stolen_ns = 0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def tick(self, *_) -> None:
        """Take one sample; also called directly to close an interval."""
        if self._busy:
            return
        self._busy = True
        begin = time.perf_counter_ns()
        self.at.append(begin - self.stolen_ns)
        self.kernel_s.append(sample())
        self.stolen_ns += time.perf_counter_ns() - begin
        self._busy = False

    def now(self) -> int:
        """Nanoseconds, without the time spent sampling."""
        while True:
            stolen = self.stolen_ns
            t = time.perf_counter_ns()
            if stolen == self.stolen_ns:  # no sample was taken in between
                return t - stolen

    def scaled_s(self, begin: int, end: int) -> float:
        """Seconds from ``begin`` to ``end`` (``now()`` values), scaled by
        the samples from the last one at or before ``begin`` to the first
        one at or after ``end``."""
        first = max(bisect_right(self.at, begin) - 1, 0)
        last = bisect_left(self.at, end)
        speed = statistics.fmean(self.kernel_s[first:last + 1])
        return (end - begin) / 1e9 * REF_S / speed
