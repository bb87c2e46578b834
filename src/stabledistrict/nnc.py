"""Nearest-neighbor chain solver and its dynamic nearest-neighbor oracle,
plus the mutual-closest-pair reference solver used as the test oracle.

The chain solver is generic over a ``DnnOracle``: any structure that keeps
the centers with remaining quota and answers each node's nearest-open-center
query under the Score total order. ``fast_oracle_factory`` builds the
default one: per-node labels of the nearest open center, repaired locally
when a center's quota fills. Because preferences are symmetric, the chain
seeded at the lowest-label unmatched node folds at once, so the solver
never asks a center for its nearest unmatched node. Its output is
oracle-independent: any other oracle answering the same queries gives the
same matching.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Iterable, Literal, NamedTuple, Protocol

from .graph import require_settles_in_order
from .model import Assignment, Instance, MemoryCapExceeded, Score, compute_center_distances

Side = Literal["centers"]

# Bytes held by the mutual-closest-pair solver. Per (center, node) pair: a
# distance-table entry (a 24-byte boxed float and its 8-byte list slot)
# plus a 4-byte id in the center's ranked row. Per node: the match, dist
# and order list slots, an order entry (a 56-byte 2-tuple and a 28-byte
# boxed node id), and one row's ranking scratch (for a sort: a boxed
# index, its list and key slots, merge space; for a pop order, a list
# slot). Per center: a merge-heap entry (a 64-byte 3-tuple, its slot and a
# boxed node id), the table row's list header, the ranked row's array
# header, and its list slots.
MUTUAL_PAIR_BYTES = 36
MUTUAL_NODE_BYTES = 160
MUTUAL_CENTER_BYTES = 256


def estimate_mutual_bytes(n: int, k: int) -> int:
    return n * k * MUTUAL_PAIR_BYTES + n * MUTUAL_NODE_BYTES + k * MUTUAL_CENTER_BYTES


_INF = float("inf")


class OracleError(RuntimeError):
    """An oracle answered inconsistently (e.g. returned an inactive agent)."""


class DnnOracle(Protocol):
    """Dynamic nearest-neighbor interface over the centers.

    ``nearest(q)`` returns ``(score, center index)`` for the active center
    minimizing the Score against node ``q``, or None if no center is
    active. ``remove(x)`` deactivates center index ``x``; a removed center
    is never returned again.
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
        assert not any(map(in_region.__getitem__, region)), "grow left unlabeled vertices"


def fast_oracle_factory(inst: Instance, side: Side) -> DnnOracle:
    """Default DnnOracle: lazily repaired labels on the centers side."""
    if side == "centers":
        return _CenterLabelOracle(inst)
    raise ValueError(f"unknown side {side!r}")


class NncRun(NamedTuple):
    assignment: Assignment
    stack_pushes: int
    seeds: int
    oracle_queries: int
    oracle_updates: int


def nnc_run(inst: Instance, oracle_factory: OracleFactory | None = None) -> NncRun:
    """Chain solver seeded at the lowest-label unmatched node.

    Every unmatched node sits in a heap keyed by its label, the Score
    against its nearest open center. Labels only get worse as centers
    fill, so a top whose center is still open is the lowest-score live
    pair, hence a mutual closest pair: the chain seeded at that node
    folds at once into the match ``[node, center]``, and no center ever
    searches for its nearest unmatched node. A top whose center is full
    is re-queried and replaced. Each match is one chain of two pushes.
    Labels are settled in distance order, so a graph on which rounding can
    absorb a weight raises GraphError (``graph.require_settles_in_order``).
    """
    require_settles_in_order(inst.graph)
    factory = oracle_factory if oracle_factory is not None else fast_oracle_factory
    oracle = factory(inst, "centers")
    n = inst.graph.node_count
    heap: list[Score] = []
    for u in range(n):
        found = oracle.nearest(u)
        if found is None:
            raise OracleError("centers-side oracle empty while nodes are unmatched")
        heap.append(found[0])
    heapify(heap)
    match = [-1] * n
    dist_out = [0.0] * n
    remaining = list(inst.quotas)
    queries = n
    updates = 0
    while heap:
        d, u, ci = heap[0]
        if remaining[ci] > 0:
            heappop(heap)
            match[u] = ci
            dist_out[u] = d
            remaining[ci] -= 1
            if remaining[ci] == 0:
                oracle.remove(ci)
                updates += 1
            continue
        found = oracle.nearest(u)
        queries += 1
        if found is None:
            raise OracleError("centers-side oracle empty while nodes are unmatched")
        score, ci = found
        if remaining[ci] <= 0:
            raise OracleError(f"centers-side oracle returned exhausted center {ci}")
        heapreplace(heap, score)
    return NncRun(
        assignment=Assignment(match=match, dist=dist_out),
        stack_pushes=2 * n,
        seeds=n,
        oracle_queries=queries,
        oracle_updates=updates,
    )


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
    materialized with each center's row ranked into (dist, node) order
    (``dijkstra``'s ``order``), and the k ranked rows are merged through a
    k-entry heap in Score order.
    Pairs whose node is matched are popped and skipped, and a center's row
    leaves the heap when its quota fills, so each center pops exactly its
    ball up to its worst member: ``pops`` equals circle growing's
    ``settled_total``. With ``check_steps`` every selected pair is verified
    mutual-closest by exhaustively scanning both sides' active partners
    (intended for small instances).
    """
    n = inst.graph.node_count
    k = inst.k
    if memory_cap_bytes is not None:
        required = estimate_mutual_bytes(n, k)
        if required > memory_cap_bytes:
            raise MemoryCapExceeded("mutual", required, memory_cap_bytes)
    ranked: list[array] = []
    table = compute_center_distances(inst, ranked)
    heap = [(table[c][ranked[c][0]], ranked[c][0], c) for c in range(k)]
    heapify(heap)
    next_pos = [1] * k
    remaining = list(inst.quotas)
    match = [-1] * n
    dist_out = [0.0] * n
    order: list[tuple[int, int]] = []
    pops = 0
    while len(order) < n:
        d, u, c = heap[0]
        pops += 1
        if match[u] < 0:
            if check_steps:
                _check_mutual_closest(table, match, remaining, d, u, c)
            match[u] = c
            dist_out[u] = d
            order.append((u, c))
            remaining[c] -= 1
            if remaining[c] == 0:
                heappop(heap)
                continue
        # an open center's row always holds an unmatched node further on
        p = next_pos[c]
        v = ranked[c][p]
        heapreplace(heap, (table[c][v], v, c))
        next_pos[c] = p + 1
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
