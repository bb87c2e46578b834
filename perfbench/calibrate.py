"""The machine-speed reference that stage times are scaled by.

On a shared host the CPU time of the same Python code drifts with what the
neighbours do: on a 2-core Xeon VM, 15 s runs of one workload read 35-40%
apart from one minute to the next, every stage of a run moving together (the
export of a fixed graph as much as any solver). The benchmark therefore times
a fixed kernel of its own between stages and reports each stage as

    stage CPU seconds * REFERENCE_S / kernel CPU seconds in the same visit,

the stage's seconds on a machine that runs the kernel in ``REFERENCE_S``.
The kernel does not call the package, so a change to the package moves the
scaled times exactly as it moves the raw ones; the raw times and the
kernel's own are printed next to them.

The kernel mixes what the package spends its time on: heap-driven shortest
paths over adjacency lists, sorting by key, and formatting and parsing text.
"""

from __future__ import annotations

import statistics
from heapq import heappop, heappush

from spans import clock

# Median kernel CPU time on the 2-core Xeon VM the bounds were set on.
REFERENCE_S = 0.004
_SIDE = 32


def _grid() -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(_SIDE * _SIDE)]
    for u in range(_SIDE * _SIDE):
        x, y = u % _SIDE, u // _SIDE
        for v, ok in ((u + 1, x + 1 < _SIDE), (u + _SIDE, y + 1 < _SIDE)):
            if ok:
                w = 1 + (u * 7919 + v * 104729) % 97
                adj[u].append((v, w))
                adj[v].append((u, w))
    return adj


_ADJ = _grid()


def kernel() -> int:
    """Fixed work: one Dijkstra, a sort by distance, TSV text out and back."""
    n = len(_ADJ)
    dist = [None] * n
    heap = [(0, 0)]
    while heap:
        d, u = heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        for v, w in _ADJ[u]:
            if dist[v] is None:
                heappush(heap, (d + w, v))
    order = sorted(range(n), key=dist.__getitem__)
    text = "".join(f"{u}\t{dist[u]}\t{i / n!r}\n" for i, u in enumerate(order))
    rows = [line.split("\t") for line in text.splitlines()]
    return sum(int(r[1]) for r in rows)


class Calibration:
    """Kernel times of the current visit; ``factor`` scales its stage times."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = clock()
        kernel()
        self.samples.append(clock() - t0)

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        return REFERENCE_S / self.kernel_s()
