"""Deferred-acceptance solvers over fully materialized preference tables.

Both variants read a k x n table of 8-byte distances, one ``array("d")``
per center filled by that center's shortest-path search, so memory is
Theta(n*k). The searches run on the table's first read, and each side's
preference lists are sorted from the table on first use: the
center-proposing run reads only the centers' lists and the node-proposing
run only the nodes'. ``build_preferences`` refuses up front (raising
``MemoryCapExceeded``) when ``model.check_table_memory`` puts the table over
a byte budget, instead of crashing mid-run; pass ``memory_cap_bytes=None``
to override.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappush, heapreplace
from typing import NamedTuple

from .model import (
    DEFAULT_MEMORY_CAP_BYTES, Assignment, Instance, check_table_memory,
    compute_center_distances, rank_rows,
)


@dataclass
class PreferenceTables:
    """The k x n distance table, searched on first read, with each side's
    ranked lists built on first read.

    center_prefs[c] ranks all nodes for center c, best first; node_prefs[u]
    ranks all center indices for node u. Both orders are strict under the
    Score total order: ties in distance fall back to node id (center side)
    or center index (node side).
    """

    inst: Instance

    @cached_property
    def dist(self) -> list[array]:
        return compute_center_distances(self.inst)

    @cached_property
    def center_prefs(self) -> list[array]:
        return rank_rows(self.dist)

    # A stable sort over the index range breaks distance ties by center
    # index, which is exactly the Score order with the first component fixed.
    @cached_property
    def node_prefs(self) -> list[array]:
        centers = range(len(self.dist))
        return [array("i", sorted(centers, key=column.__getitem__)) for column in zip(*self.dist)]


class GsRun(NamedTuple):
    assignment: Assignment
    proposals: int


def build_preferences(
    inst: Instance, memory_cap_bytes: int | None = DEFAULT_MEMORY_CAP_BYTES
) -> PreferenceTables:
    """Refuse a table over the memory cap; otherwise return one whose k
    Dijkstras run on its first read."""
    check_table_memory("gale-shapley", inst.graph.node_count, inst.k, memory_cap_bytes)
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
    center_prefs = prefs.center_prefs
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
    keyed by Score. A node leaves that heap only when the center bumps it,
    which pops it, and never proposes to the same center twice, so the top
    is always a current member. The bumped node resumes proposing from
    where it left off.
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
            wd, wu = -heap[0][0], -heap[0][1]
            if (d, u) < (wd, wu):
                heapreplace(heap, (-d, -u))
                cur_center[wu] = -1
                free.append(wu)
                cur_center[u] = c
                cur_dist[u] = d
            else:
                free.append(u)
    return GsRun(Assignment(match=cur_center, dist=cur_dist), proposals)
