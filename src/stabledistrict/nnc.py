"""Nearest-neighbor chain solver and its dynamic nearest-neighbor oracles,
plus the mutual-closest-pair reference solver used as the test oracle.

The chain solver is generic over a ``DnnOracle``: any structure that keeps
one side's active agents (unmatched nodes, or centers with remaining
quota) and answers nearest-active queries from the other side under the
Score total order. ``fast_oracle_factory`` is the default pair: per-node
labels of the nearest open center, repaired locally when a center's quota
fills, and a resumable explorer per center for nearest-unmatched-node
queries. The solver's output is oracle-independent, so any other oracle
answering the same queries gives the same matching.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Literal, NamedTuple, Protocol

from .model import (
    Assignment,
    Instance,
    MemoryCapExceeded,
    Score,
    compute_center_distances,
)

Side = Literal["nodes", "centers"]

# Bytes per (center, node) pair held by the mutual-closest-pair solver: a
# heap entry (a 64-byte 3-tuple, its 8-byte list slot and a 28-byte boxed
# node id) plus a distance-table entry (a 24-byte boxed float and its
# 8-byte list slot), rounded up for list growth.
MUTUAL_ENTRY_BYTES = 136

_INF = float("inf")


class OracleError(RuntimeError):
    """An oracle answered inconsistently (e.g. returned an inactive agent)."""


class DnnOracle(Protocol):
    """Dynamic nearest-neighbor interface over one side of the matching.

    ``nearest(q)`` returns ``(score, element)`` for the active element of
    the maintained side minimizing the Score against query agent ``q`` of
    the opposite side, or None if the active set is empty. ``remove(x)``
    deactivates element ``x``; a removed element is never returned again.
    Elements are node ids on the "nodes" side and center indices on the
    "centers" side; queries are identified the opposite way.
    """

    def nearest(self, q: int) -> tuple[Score, int] | None: ...

    def remove(self, x: int) -> None: ...


OracleFactory = Callable[[Instance, Side], DnnOracle]


class _CenterLabelOracle:
    """Centers-side oracle with per-vertex nearest-open-center labels.

    One multi-source Dijkstra keyed by (distance, center index, node)
    labels every vertex with its nearest active center. A removal only
    invalidates labels pointing at the removed center (a surviving label
    is still the minimum over the shrunken active set), so repairs run
    lazily: only when a query lands on a dead label are all dead regions
    relabeled at once by the same Dijkstra restricted to them and seeded
    from their boundary, whose labels are necessarily still alive. Queries
    on live labels are O(1) lookups.
    """

    def __init__(self, inst: Instance):
        n = inst.graph.node_count
        self._adjacency = inst.graph.adjacency
        self._active = bytearray([1]) * inst.k
        self._alive = inst.k
        self._pending: list[int] = []
        self._sentinel = inst.k
        self._lab_d = [_INF] * n
        self._lab_c = [inst.k] * n
        self._members: list[list[int]] = [[] for _ in range(inst.k)]
        self._in_region = bytearray([1]) * n
        heap = []
        for ci, v in enumerate(inst.centers):
            self._lab_d[v] = 0.0
            self._lab_c[v] = ci
            heap.append((0.0, ci, v))
        self._grow(heap, range(n))

    def nearest(self, q: int) -> tuple[Score, int] | None:
        if self._alive == 0:
            return None
        ci = self._lab_c[q]
        if not self._active[ci]:
            self._repair()
            ci = self._lab_c[q]
        return Score(self._lab_d[q], q, ci), ci

    def remove(self, x: int) -> None:
        if self._active[x]:
            self._active[x] = 0
            self._alive -= 1
            self._pending.append(x)

    def _repair(self) -> None:
        lab_d, lab_c = self._lab_d, self._lab_c
        adjacency = self._adjacency
        members = self._members
        in_region = self._in_region
        sentinel = self._sentinel
        region: list[int] = []
        for ci in self._pending:
            region.extend(members[ci])
            members[ci] = []
        self._pending.clear()
        for v in region:
            in_region[v] = 1
        heap: list[tuple[float, int, int]] = []
        for v in region:
            bd, bc = _INF, sentinel
            for nb, w in adjacency[v]:
                if in_region[nb]:
                    continue
                nd = lab_d[nb] + w
                nc = lab_c[nb]
                if nd < bd or (nd == bd and nc < bc):
                    bd, bc = nd, nc
                    heap.append((nd, nc, v))
            lab_d[v], lab_c[v] = bd, bc
        self._grow(heap, region)

    def _grow(self, heap: list[tuple[float, int, int]], region: Iterable[int]) -> None:
        """Settle every marked vertex from the seeded ``(dist, center, node)``
        heap; each seed already holds its vertex's tentative label."""
        lab_d, lab_c = self._lab_d, self._lab_c
        adjacency = self._adjacency
        members = self._members
        in_region = self._in_region
        push = heappush
        heapify(heap)
        while heap:
            d, ci, v = heappop(heap)
            if not in_region[v] or d != lab_d[v] or ci != lab_c[v]:
                continue
            in_region[v] = 0  # settled
            members[ci].append(v)
            for nb, w in adjacency[v]:
                if not in_region[nb]:
                    continue
                nd = d + w
                ld = lab_d[nb]
                if nd < ld or (nd == ld and ci < lab_c[nb]):
                    lab_d[nb] = nd
                    lab_c[nb] = ci
                    push(heap, (nd, ci, nb))
        assert not any(in_region[v] for v in region), "grow left unlabeled vertices"


class _ResumingNodeOracle:
    """Nodes-side oracle with one resumable Dijkstra explorer per center.

    Matched nodes only ever leave the active set, so each center's
    explorer keeps its last settled vertex and settles further only once
    that vertex is deactivated, never rewinding. Total search work per
    center is bounded by the ball it ever explores, which reaches just
    past its farthest eventual member.
    """

    def __init__(self, inst: Instance):
        self._adjacency = inst.graph.adjacency
        self._centers = inst.centers
        self._active = bytearray([1]) * inst.graph.node_count
        self._alive = inst.graph.node_count
        # center index -> [heap, dist, last settled (dist, node) or None]
        self._explorers: dict[int, list] = {}

    def nearest(self, q: int) -> tuple[Score, int] | None:
        if self._alive == 0:
            return None
        state = self._explorers.get(q)
        if state is None:
            start = self._centers[q]
            state = self._explorers[q] = [[(0.0, start)], {start: 0.0}, None]
        heap, dist, current = state
        active = self._active
        adjacency = self._adjacency
        while current is None or not active[current[1]]:
            if not heap:
                return None
            d, v = current = heappop(heap)
            if d > dist[v]:
                current = None  # stale entry
                continue
            for nb, w in adjacency[v]:
                nd = d + w
                if nd < dist.get(nb, _INF):
                    dist[nb] = nd
                    heappush(heap, (nd, nb))
        state[2] = current
        d, v = current
        return Score(d, v, q), v

    def remove(self, x: int) -> None:
        if self._active[x]:
            self._active[x] = 0
            self._alive -= 1


def fast_oracle_factory(inst: Instance, side: Side) -> DnnOracle:
    """Default DnnOracle pair: lazily repaired labels on the centers side,
    resumable explorers on the nodes side."""
    if side == "centers":
        return _CenterLabelOracle(inst)
    if side == "nodes":
        return _ResumingNodeOracle(inst)
    raise ValueError(f"unknown side {side!r}")


_NODE, _CENTER = 0, 1


class NncRun(NamedTuple):
    assignment: Assignment
    stack_pushes: int
    seeds: int
    oracle_queries: int
    oracle_updates: int


def nnc_run(inst: Instance, oracle_factory: OracleFactory | None = None) -> NncRun:
    """Chain solver: walk nearest neighbors until the chain folds back.

    The stack alternates nodes and centers, each the nearest active agent
    of its predecessor, with strictly decreasing consecutive scores. When
    the top agent's nearest neighbor is already on the stack it must be
    the second-from-top entry; the two form a mutual closest pair and are
    matched. A center that keeps quota after a match stays on the stack
    (it is still its predecessor's nearest neighbor). An empty stack is
    reseeded with the lowest-id unmatched node.
    """
    factory = oracle_factory if oracle_factory is not None else fast_oracle_factory
    node_oracle = factory(inst, "nodes")
    center_oracle = factory(inst, "centers")
    n = inst.graph.node_count
    match = [-1] * n
    dist_out = [0.0] * n
    remaining = list(inst.quotas)
    stack: list[tuple[int, int]] = []
    links: list[Score | None] = []  # score between entry i and entry i-1
    on_stack_node = bytearray(n)
    on_stack_center = bytearray(inst.k)
    seed_ptr = 0
    matched = 0
    pushes = seeds = queries = updates = 0
    while matched < n:
        if not stack:
            while match[seed_ptr] >= 0:
                seed_ptr += 1
            stack.append((_NODE, seed_ptr))
            links.append(None)
            on_stack_node[seed_ptr] = 1
            seeds += 1
            pushes += 1
            continue
        side, agent = stack[-1]
        if side == _NODE:
            found = center_oracle.nearest(agent)
            queries += 1
            if found is None:
                raise OracleError("centers-side oracle empty while nodes are unmatched")
            score, ci = found
            if remaining[ci] <= 0:
                raise OracleError(f"centers-side oracle returned exhausted center {ci}")
            if on_stack_center[ci]:
                assert stack[-2] == (_CENTER, ci), "nearest in stack must be second-from-top"
                # mutual closest pair: match the top node with this center
                match[agent] = ci
                dist_out[agent] = score.dist
                matched += 1
                node_oracle.remove(agent)
                updates += 1
                remaining[ci] -= 1
                stack.pop()
                links.pop()
                on_stack_node[agent] = 0
                if remaining[ci] == 0:
                    center_oracle.remove(ci)
                    updates += 1
                    stack.pop()
                    links.pop()
                    on_stack_center[ci] = 0
            else:
                prev = links[-1]
                assert prev is None or score < prev, "chain scores must strictly decrease"
                stack.append((_CENTER, ci))
                links.append(score)
                on_stack_center[ci] = 1
                pushes += 1
        else:
            found = node_oracle.nearest(agent)
            queries += 1
            if found is None:
                raise OracleError("nodes-side oracle empty while quotas are unfilled")
            score, v = found
            if match[v] >= 0:
                raise OracleError(f"nodes-side oracle returned matched node {v}")
            if on_stack_node[v]:
                assert stack[-2] == (_NODE, v), "nearest in stack must be second-from-top"
                match[v] = agent
                dist_out[v] = score.dist
                matched += 1
                node_oracle.remove(v)
                updates += 1
                remaining[agent] -= 1
                stack.pop()  # the center on top
                links.pop()
                on_stack_center[agent] = 0
                stack.pop()  # the matched node below it
                links.pop()
                on_stack_node[v] = 0
                if remaining[agent] == 0:
                    center_oracle.remove(agent)
                    updates += 1
            else:
                prev = links[-1]
                assert prev is None or score < prev, "chain scores must strictly decrease"
                stack.append((_NODE, v))
                links.append(score)
                on_stack_node[v] = 1
                pushes += 1
    assert not stack, "stack must drain once every node is matched"
    return NncRun(
        assignment=Assignment(match=match, dist=dist_out),
        stack_pushes=pushes,
        seeds=seeds,
        oracle_queries=queries,
        oracle_updates=updates,
    )


def solve_nnc(inst: Instance, oracle_factory: OracleFactory | None = None) -> Assignment:
    """Stable assignment via the nearest-neighbor chain."""
    return nnc_run(inst, oracle_factory).assignment


class MutualRun(NamedTuple):
    assignment: Assignment
    pops: int
    order: list[tuple[int, int]]  # (node, center) in match order


def mutual_closest_run(
    inst: Instance,
    *,
    check_steps: bool = False,
    memory_cap_bytes: int | None = None,
) -> MutualRun:
    """Reference solver: repeatedly match the global minimum-score pair.

    The pair of minimum Score among (unmatched node, unfilled center)
    pairs is always a mutual closest pair, so matching it greedily yields
    the unique stable solution. The full k x n distance table is
    materialized and consumed through one lazily-filtered heap. With
    ``check_steps`` every selected pair is verified mutual-closest by
    exhaustively scanning both sides' active partners (intended for small
    instances).
    """
    n = inst.graph.node_count
    k = inst.k
    if memory_cap_bytes is not None:
        required = n * k * MUTUAL_ENTRY_BYTES
        if required > memory_cap_bytes:
            raise MemoryCapExceeded("mutual", required, memory_cap_bytes)
    table = compute_center_distances(inst)
    heap = [(table[c][u], u, c) for c in range(k) for u in range(n)]
    heapify(heap)
    remaining = list(inst.quotas)
    match = [-1] * n
    dist_out = [0.0] * n
    order: list[tuple[int, int]] = []
    pops = 0
    while len(order) < n:
        d, u, c = heappop(heap)
        pops += 1
        if match[u] >= 0 or remaining[c] == 0:
            continue
        if check_steps:
            _check_mutual_closest(table, match, remaining, d, u, c)
        match[u] = c
        dist_out[u] = d
        order.append((u, c))
        remaining[c] -= 1
    return MutualRun(assignment=Assignment(match=match, dist=dist_out), pops=pops, order=order)


def _check_mutual_closest(
    table: list[list[float]],
    match: list[int],
    remaining: list[int],
    d: float,
    u: int,
    c: int,
) -> None:
    best_center = min(
        (table[c2][u], c2) for c2 in range(len(table)) if remaining[c2] > 0
    )
    assert best_center == (d, c), (
        f"node {u}: nearest open center is {best_center}, selected ({d}, {c})"
    )
    best_node = min(
        (table[c][v], v) for v in range(len(match)) if match[v] < 0
    )
    assert best_node == (d, u), (
        f"center {c}: nearest unmatched node is {best_node}, selected ({d}, {u})"
    )


def solve_mutual_closest(inst: Instance) -> Assignment:
    """Stable assignment via repeated mutual-closest-pair extraction."""
    return mutual_closest_run(inst).assignment
