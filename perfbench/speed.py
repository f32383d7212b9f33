"""A speed probe that rescales wall times to a fixed reference CPU speed.

On a shared host the same Python code on the same input can run twice as
slowly from one second to the next, as other tenants load the core; medians
of raw wall time then move by more than any useful regression bound. While a
``SpeedProbe`` is installed, a timer interrupts the workload every ``PERIOD``
seconds and times a fixed pure-Python Dijkstra. ``seconds(start, end)`` turns
a measured interval into seconds at the reference speed: the probes' own time
inside the interval is removed, and the rest is multiplied by ``REFERENCE_S``
over the median probe time around the interval. A change in qnroute's code
moves these figures; a change in how busy the host is does not.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import time

PERIOD = 0.03
WINDOW = 0.5
MIN_PROBES = 5

_rng = random.Random(1)
_NODES = 200
_GRAPH = {v: {} for v in range(_NODES)}
for _i in range(_NODES):
    for _j in range(_i + 1, _NODES):
        if _rng.random() < 0.05:
            _GRAPH[_i][_j] = _GRAPH[_j][_i] = _rng.random()


def reference_work(source: int = 0) -> int:
    """Dijkstra from ``source`` over a fixed 200-node graph: dict, set and
    heap work of the kind qnroute's Python layers do."""
    dist = {source: 0.0}
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u in sorted(_GRAPH[v]):
            nd = d + _GRAPH[v][u]
            if u not in dist or nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return len(done)


# Duration of ``reference_work`` on an uncontended core of the calibration
# host (see PROVENANCE.json); only fixes the unit of the rescaled seconds.
REFERENCE_S = 0.0005


class SpeedProbe:
    """Samples the reference work on a wall-clock timer while installed."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that fires inside a tick is dropped
            return
        self._busy = True
        start = time.perf_counter()
        reference_work(len(self.starts) % _NODES)
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Median probe time over the reference: how much slower than
        reference speed the host ran, over the whole run."""
        return statistics.median(self.durations) / REFERENCE_S

    def seconds(self, start: float, end: float) -> float:
        """Seconds the interval would have taken at the reference speed."""
        starts = self.starts
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        own = end - start - sum(self.durations[lo:hi])

        mid = (start + end) / 2
        half = max(WINDOW, end - start) / 2
        lo = bisect.bisect_left(starts, mid - half)
        hi = bisect.bisect_right(starts, mid + half)
        if hi - lo < MIN_PROBES:
            near = bisect.bisect_left(starts, mid)
            hi = min(len(starts), max(near + MIN_PROBES // 2 + 1, MIN_PROBES))
            lo = max(0, hi - MIN_PROBES)
        return own * REFERENCE_S / statistics.median(self.durations[lo:hi])
