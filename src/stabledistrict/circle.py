"""Interleaved multi-source solver: one shortest-path search per center,
advanced in global score order.

All centers share one heap of (dist, node, center) Score triples, and each
open center keeps its own dict of tentative distances. Each pop that is
neither stale nor a full center's is one center settling a node; if that
node is still unmatched it is matched to the center, and the center's
ball is dropped the moment its quota fills, before its last member is
relaxed. Searches keep relaxing through nodes matched to other centers,
which is required for correctness when a district's territory is split by
a competitor. Distances between all center-node pairs are never fully
computed, in contrast with the preference-table solvers.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import IO, NamedTuple

from .graph import INF, require_settles_in_order
from .model import Assignment, Instance


class CircleRun(NamedTuple):
    assignment: Assignment
    settled_total: int  # settle events: (center, node) pairs popped for an open center
    pushed_total: int  # (center, node) pairs reached: the nodes in every center's ball


def circle_growing_run(inst: Instance, trace: IO[str] | None = None) -> CircleRun:
    """Stable assignment via simultaneous quota-halted circle growth.

    The run counts settle events and reached pairs. ``trace``, when given,
    receives one tab-separated line per event:
    ``settle|match|halt <center index> <dense node id> <distance>``.
    The shared heap needs every center's settles in ``(dist, node)`` order,
    so a graph on which rounding can absorb a weight raises GraphError
    (``graph.require_settles_in_order``) before any search starts.
    """
    require_settles_in_order(inst.graph)
    n = inst.graph.node_count
    adjacency = inst.graph.adjacency
    remaining = list(inst.quotas)
    # Each open center's tentative distances by node; a full center's is None.
    balls: list[dict[int, float] | None] = [{s: 0.0} for s in inst.centers]
    heap = [(0.0, s, c) for c, s in enumerate(inst.centers)]
    heapify(heap)
    match = [-1] * n
    dist_out = [0.0] * n
    matched = settled_total = pushed_total = 0
    while heap and matched < n:
        d, u, c = heappop(heap)
        ball = balls[c]
        if ball is None or d > ball[u]:
            continue  # a full center's entry, or a stale one
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
                if trace is not None:
                    trace.write(f"halt\t{c}\t{u}\t{d!r}\n")
                pushed_total += len(ball)
                balls[c] = None  # the last member is never relaxed
                continue
        for v, w in adjacency[u]:
            nd = d + w
            if nd < ball.get(v, INF):
                ball[v] = nd
                heappush(heap, (nd, v, c))
    assert matched == n, "connected instance must match every node"
    return CircleRun(
        assignment=Assignment(match=match, dist=dist_out),
        settled_total=settled_total,
        pushed_total=pushed_total,
    )
