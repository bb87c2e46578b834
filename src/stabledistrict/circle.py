"""Interleaved multi-source solver: one shortest-path instance per center,
advanced in global score order.

All k instances share one priority queue keyed by the full (dist, node,
center) Score triple. Each popped entry settles a node for one instance;
if that node is still unmatched it is matched to the instance's center,
and the instance halts the moment its quota fills. Instances keep relaxing
through nodes matched to other centers, which is required for correctness
when a district's territory is split by a competitor. Distances between
all center-node pairs are never fully computed, in contrast with the
preference-table solvers.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import IO, NamedTuple

from .model import Assignment, Instance, MemoryCapExceeded


def estimate_circle_bytes(n: int, k: int) -> int:
    """Dominant preallocation: one settled bitset of n bits per center."""
    return k * ((n + 7) // 8)


class CircleRun(NamedTuple):
    assignment: Assignment
    settled_total: int
    pushed_total: int


def circle_growing_run(
    inst: Instance,
    memory_cap_bytes: int | None = None,
    trace: IO[str] | None = None,
) -> CircleRun:
    """Run the interleaved solver; see solve_circle_growing for the contract.

    The run counts settle and push events. ``trace``, when given,
    receives one tab-separated line per event:
    ``settle|match|halt <center index> <dense node id> <distance>``.
    """
    g = inst.graph
    n = g.node_count
    k = inst.k
    if memory_cap_bytes is not None:
        required = estimate_circle_bytes(n, k)
        if required > memory_cap_bytes:
            raise MemoryCapExceeded("circle", required, memory_cap_bytes)
    adjacency = g.adjacency
    remaining = list(inst.quotas)
    halted = bytearray(k)
    settled = [bytearray((n + 7) // 8) for _ in range(k)]
    tentative: list[dict[int, float]] = [
        {inst.centers[c]: 0.0} for c in range(k)
    ]
    heap: list[tuple[float, int, int]] = [
        (0.0, inst.centers[c], c) for c in range(k)
    ]
    heapify(heap)
    match = [-1] * n
    dist_out = [0.0] * n
    matched = 0
    settled_total = 0
    pushed_total = k
    last_key: tuple[float, int, int] = (0.0, -1, -1)
    while heap and matched < n:
        entry = heappop(heap)
        d, u, c = entry
        if halted[c]:
            continue
        byte, bit = u >> 3, 1 << (u & 7)
        if settled[c][byte] & bit:
            continue
        assert last_key <= entry, "pop order must be non-decreasing"
        last_key = entry
        settled[c][byte] |= bit
        settled_total += 1
        if trace is not None:
            trace.write(f"settle\t{c}\t{u}\t{d!r}\n")
        if match[u] < 0:
            match[u] = c
            dist_out[u] = d
            matched += 1
            remaining[c] -= 1
            if trace is not None:
                trace.write(f"match\t{c}\t{u}\t{d!r}\n")
            if remaining[c] == 0:
                halted[c] = 1
                if trace is not None:
                    trace.write(f"halt\t{c}\t{u}\t{d!r}\n")
                continue
        tc = tentative[c]
        for v, w in adjacency[u]:
            nd = d + w
            old = tc.get(v)
            if old is None or nd < old:
                tc[v] = nd
                heappush(heap, (nd, v, c))
                pushed_total += 1
    assert matched == n, "connected instance must match every node"
    return CircleRun(
        assignment=Assignment(match=match, dist=dist_out),
        settled_total=settled_total,
        pushed_total=pushed_total,
    )


def solve_circle_growing(
    inst: Instance,
    memory_cap_bytes: int | None = None,
    trace: IO[str] | None = None,
) -> Assignment:
    """Stable assignment via simultaneous quota-halted circle growth."""
    return circle_growing_run(inst, memory_cap_bytes=memory_cap_bytes, trace=trace).assignment
