"""Deferred-acceptance solvers over fully materialized preference tables.

Both variants read a k x n score table from one shortest-path pass per
center, so memory is Theta(n*k). The searches run on the table's first
read, and each side's preference lists are built on first use: the
center-proposing run reads only the centers' lists and the node-proposing
run only the nodes', so neither pays for the other side's. When the
center side is read first, its lists are the ranked rows the searches
hand back (``dijkstra``'s ``order``); read after the table, they are
sorted from it.
Because the table is a real failure mode on large inputs,
``build_preferences`` refuses up front (raising ``MemoryCapExceeded``)
when the estimated size of the table and both sides' lists exceeds a
configurable byte budget, instead of crashing mid-run; pass
``memory_cap_bytes=None`` to override.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import NamedTuple

from .model import Assignment, Instance, MemoryCapExceeded, compute_center_distances, rank_rows

# Bytes per (center, node) pair while the tables are built: the distance
# row's 24-byte boxed float and 8-byte list slot, its 8-byte array copy,
# and a 4-byte id in each side's preference array. Each side is built
# only when first read, but a caller may read both (the cross-checks do),
# so the estimate prices both: the cap must bound what one table can hold.
PAIR_ENTRY_BYTES = 48
# Bytes per array row (an 80-byte array header plus its list slot, rounded
# up). Each node owns one preference row; each center owns a distance
# list, a distance array and a preference array, and a fourth row stands
# for the k-long column tuple and scratch list of one node's sort.
ROW_BYTES = 96
DEFAULT_MEMORY_CAP_BYTES = 2 * 1024**3


def estimate_preference_bytes(n: int, k: int) -> int:
    return n * k * PAIR_ENTRY_BYTES + (n + 4 * k) * ROW_BYTES


@dataclass
class PreferenceTables:
    """The k x n distance table, searched on first read, with each side's
    ranked lists built on first read.

    center_prefs[c] ranks all nodes for center c, best first; node_prefs[u]
    ranks all center indices for node u. Both orders are strict under the
    Score total order: ties in distance fall back to node id (center side)
    or center index (node side). A first read of ``center_prefs`` keeps the
    searches' ranked rows; a first read of ``dist`` or ``node_prefs`` runs
    the searches alone, and ``center_prefs`` read after that sorts the rows.
    """

    inst: Instance

    @cached_property
    def dist(self) -> list[array]:
        return _distance_arrays(compute_center_distances(self.inst))

    @cached_property
    def center_prefs(self) -> list[array]:
        if "dist" not in vars(self):
            orders: list[array] = []
            self.dist = _distance_arrays(compute_center_distances(self.inst, orders))
            return orders
        return rank_rows(self.dist)

    # A stable sort over the index range breaks distance ties by center
    # index, which is exactly the Score order with the first component fixed.
    @cached_property
    def node_prefs(self) -> list[array]:
        centers = range(len(self.dist))
        return [array("i", sorted(centers, key=column.__getitem__)) for column in zip(*self.dist)]


def _distance_arrays(rows: list[list[float]]) -> list[array]:
    dist = []
    for c, row in enumerate(rows):
        dist.append(array("d", row))
        rows[c] = None  # free each boxed row once its array copy exists
    return dist


class GsRun(NamedTuple):
    assignment: Assignment
    proposals: int


def build_preferences(
    inst: Instance, memory_cap_bytes: int | None = DEFAULT_MEMORY_CAP_BYTES
) -> PreferenceTables:
    """Refuse a table over the memory cap; otherwise return one whose k
    Dijkstras run on its first read."""
    required = estimate_preference_bytes(inst.graph.node_count, inst.k)
    if memory_cap_bytes is not None and required > memory_cap_bytes:
        raise MemoryCapExceeded("gale-shapley", required, memory_cap_bytes)
    return PreferenceTables(inst)


def gs_centers_run(inst: Instance, prefs: PreferenceTables) -> GsRun:
    """Centers propose down their lists while under quota.

    A node accepts a proposal when unmatched or when the proposer scores
    strictly better than its current center; the displaced center then
    resumes proposing. Each center proposes to each node at most once, so
    the matching phase is O(n*k) after preference construction.
    """
    n = inst.graph.node_count
    k = inst.k
    center_prefs = prefs.center_prefs  # first: a fresh table keeps the searches' ranked rows
    dist = prefs.dist
    slots = list(inst.quotas)
    pointer = [0] * k
    cur_center = [-1] * n
    cur_dist = [0.0] * n
    active = deque(range(k))
    queued = [True] * k
    proposals = 0
    while active:
        c = active.popleft()
        queued[c] = False
        pref_row = center_prefs[c]
        dist_row = dist[c]
        p = pointer[c]
        while slots[c] > 0:
            assert p < n, "center exhausted its list with quota unfilled"
            u = pref_row[p]
            p += 1
            proposals += 1
            d = dist_row[u]
            holder = cur_center[u]
            if holder < 0:
                cur_center[u] = c
                cur_dist[u] = d
                slots[c] -= 1
            elif (d, c) < (cur_dist[u], holder):
                cur_center[u] = c
                cur_dist[u] = d
                slots[c] -= 1
                slots[holder] += 1
                if not queued[holder]:
                    active.append(holder)
                    queued[holder] = True
        pointer[c] = p
    assert all(c >= 0 for c in cur_center)
    return GsRun(Assignment(match=cur_center, dist=cur_dist), proposals)


def gs_nodes_run(inst: Instance, prefs: PreferenceTables) -> GsRun:
    """Nodes propose down their lists; full centers bump their worst match.

    Each center tracks its least-preferred current member in a max-heap
    keyed by Score (lazy deletion guards against stale tops). The bumped
    node resumes proposing from where it left off.
    """
    n = inst.graph.node_count
    dist = prefs.dist
    node_prefs = prefs.node_prefs
    slots = list(inst.quotas)
    pointer = [0] * n
    cur_center = [-1] * n
    cur_dist = [0.0] * n
    worst: list[list[tuple[float, int]]] = [[] for _ in range(inst.k)]
    free = list(range(n - 1, -1, -1))  # stack; node 0 proposes first
    proposals = 0
    while free:
        u = free.pop()
        p = pointer[u]
        assert p < inst.k, "node exhausted its list while unmatched"
        c = node_prefs[u][p]
        pointer[u] = p + 1
        proposals += 1
        d = dist[c][u]
        if slots[c] > 0:
            slots[c] -= 1
            cur_center[u] = c
            cur_dist[u] = d
            heappush(worst[c], (-d, -u))
        else:
            heap = worst[c]
            while heap and cur_center[-heap[0][1]] != c:
                heappop(heap)  # stale entry
            assert heap, "full center with empty member heap"
            wd, wu = -heap[0][0], -heap[0][1]
            if (d, u) < (wd, wu):
                heappop(heap)
                cur_center[wu] = -1
                free.append(wu)
                cur_center[u] = c
                cur_dist[u] = d
                heappush(heap, (-d, -u))
            else:
                free.append(u)
    return GsRun(Assignment(match=cur_center, dist=cur_dist), proposals)
