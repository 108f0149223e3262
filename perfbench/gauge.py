"""Host-speed gauge: a fixed reference kernel timed between the program's
operations.

Other tenants of a shared host slow everything on it, for stretches that
last from seconds to a whole run: on a 2-vCPU VM, federated-admission's
ticks summed to 1.35 s at their fastest repetitions in one 50-s window
and to 2.48 s in another. Neither the fastest nor the median repetition
within a run can take that out when the whole run is slow. The gauge measures the host's speed at the same moments as
the program: during a pass it runs `kernel` whenever GAUGE_EVERY seconds
have passed since its last sample, between two of the program's
operations, never inside one. Each operation's host time is then scaled by
REF_S / (the median of the GAUGE_WINDOW samples before it and the
GAUGE_WINDOW after it), which gives host time at a fixed reference speed.

The kernel is pure Python and shares no code with sdcps, so a change to
the program cannot change it: a shortest-path search over a fixed
weighted grid, allocating one small object per settled node, which is the
kind of interpreter work the simulator does. Garbage collection is off
while it runs, so the program's heap does not leak into its time.

In three recorded traces of 240-300 s (federated-admission and
twin-rehearsal), cut into 50-s windows, the median pass time scaled this
way varied 1-7% (max - min over median) between windows, where the
unscaled median varied 25-31%.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

SIDE = 16
SOURCES = (0, 37, 101)
GAUGE_EVERY = 0.010
GAUGE_WINDOW = 3
# about the kernel's median time under CPython 3.11 on a 2-vCPU Xeon
# (Sapphire Rapids) VM while no other tenant contends; it only sets the
# scale of the reported times
REF_S = 0.9e-3


def _grid() -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {}
    for r in range(SIDE):
        for c in range(SIDE):
            n = r * SIDE + c
            adj[n] = [
                (rr * SIDE + cc, 1 + (n * 7 + rr) % 3)
                for rr, cc in ((r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c))
                if 0 <= rr < SIDE and 0 <= cc < SIDE
            ]
    return adj


ADJ = _grid()


class _Settled:
    __slots__ = ("dist", "node")

    def __init__(self, dist, node):
        self.dist = dist
        self.node = node


def kernel() -> int:
    """Dijkstra from each of SOURCES over the fixed grid; returns the number
    of nodes settled plus the number of predecessor links, a constant."""
    total = 0
    for src in SOURCES:
        dist = {src: 0}
        prev = {}
        settled = []
        heap = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            settled.append(_Settled(d, u))
            for v, w in ADJ[u]:
                nd = d + w
                if nd < dist.get(v, 1 << 30):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        total += len(settled) + len(prev)
    return total


class Gauge:
    """Samples the kernel's host time at most every GAUGE_EVERY seconds; the
    first call to `maybe` always samples."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def maybe(self) -> None:
        if perf_counter() < self._due:
            return
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        took = perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append(took)
        self._due = perf_counter() + GAUGE_EVERY

    def scale_at(self, i: int) -> float:
        """For an operation that ran after the first `i` samples: REF_S over
        the median of the samples around it. Multiply its host time by this
        to get it at the reference speed."""
        return REF_S / statistics.median(
            self.samples[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW])

    def median_s(self) -> float:
        return statistics.median(self.samples)
