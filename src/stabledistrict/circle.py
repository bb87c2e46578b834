"""Interleaved multi-source solver: one shortest-path search per center,
advanced in global score order.

Each center runs its own ``graph.settle_stream``, and a k-way merge of the
streams keyed by the full (dist, node, center) Score triple advances them
one settle at a time. Each merged settle is one center reaching a node;
if that node is still unmatched it is matched to the center, and the
center's stream leaves the merge the moment its quota fills, before its
last member is relaxed. Streams keep relaxing through nodes matched to
other centers, which is required for correctness when a district's
territory is split by a competitor. Distances between all center-node
pairs are never fully computed, in contrast with the preference-table
solvers.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heapreplace
from itertools import repeat
from typing import IO, NamedTuple

from .graph import INF, require_settles_in_order, settle_stream
from .model import Assignment, Instance


class CircleRun(NamedTuple):
    assignment: Assignment
    settled_total: int  # settle events: (center, node) pairs the merge popped
    pushed_total: int  # (center, node) pairs reached: the nodes in every center's store


def circle_growing_run(inst: Instance, trace: IO[str] | None = None) -> CircleRun:
    """Run the interleaved solver; see solve_circle_growing for the contract.

    The run counts settle events and reached pairs. ``trace``, when given,
    receives one tab-separated line per event:
    ``settle|match|halt <center index> <dense node id> <distance>``.
    The merge needs every stream in ``(dist, node)`` order, so a graph on
    which rounding can absorb a weight raises GraphError
    (``graph.require_settles_in_order``) before any search starts.
    """
    require_settles_in_order(inst.graph)
    n = inst.graph.node_count
    adjacency = inst.graph.adjacency
    remaining = list(inst.quotas)
    # Each center's tentative distances by node. A node not yet reached
    # reads inf, and the stream stores a distance there at once.
    balls = [defaultdict(repeat(INF).__next__) for _ in inst.centers]
    streams = [settle_stream(adjacency, s, ball) for s, ball in zip(inst.centers, balls)]
    heap = [next(stream) + (c,) for c, stream in enumerate(streams)]
    heapify(heap)
    match = [-1] * n
    dist_out = [0.0] * n
    matched = 0
    settled_total = 0
    pushed_total = 0
    while heap and matched < n:
        entry = heap[0]
        d, u, c = entry
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
                streams[c].close()  # unresumed: the last member is never relaxed
        step = next(streams[c], None)
        if step is None:
            # Leaving the merge frees the center's search: only open centers hold a ball.
            heappop(heap)
            pushed_total += len(balls[c])
            balls[c] = streams[c] = None
        else:
            heapreplace(heap, step + (c,))
    assert matched == n, "connected instance must match every node"
    return CircleRun(
        assignment=Assignment(match=match, dist=dist_out),
        settled_total=settled_total,
        pushed_total=pushed_total,
    )


def solve_circle_growing(inst: Instance, trace: IO[str] | None = None) -> Assignment:
    """Stable assignment via simultaneous quota-halted circle growth."""
    return circle_growing_run(inst, trace=trace).assignment
