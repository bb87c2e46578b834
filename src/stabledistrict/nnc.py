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

from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Iterable, Literal, NamedTuple, Protocol

from .graph import require_settles_in_order
from .model import (
    DEFAULT_MEMORY_CAP_BYTES, Assignment, Instance, Score, check_table_memory,
    compute_center_distances, rank_rows,
)

Side = Literal["centers"]

_INF = float("inf")


class OracleError(RuntimeError):
    """An oracle answered inconsistently (e.g. returned an inactive agent)."""


class DnnOracle(Protocol):
    """Dynamic nearest-neighbor interface over the centers.

    ``nearest(q)`` returns the Score of node ``q`` against the active
    center minimizing it (its center index is ``score.center``), or None
    if no center is active. ``remove(x)`` deactivates center index ``x``;
    a removed center is never returned again.
    """

    def nearest(self, q: int) -> Score | None: ...

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

    def nearest(self, q: int) -> Score | None:
        if self._alive == 0:
            return None
        ci = self._lab_c[q]
        if not self._active[ci]:
            self._repair()
            ci = self._lab_c[q]
        return Score(self._lab_d[q], q, ci)

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
        score = oracle.nearest(u)
        if score is None:
            raise OracleError("centers-side oracle empty while nodes are unmatched")
        heap.append(score)
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
        score = oracle.nearest(u)
        queries += 1
        if score is None:
            raise OracleError("centers-side oracle empty while nodes are unmatched")
        if remaining[score.center] <= 0:
            raise OracleError(f"centers-side oracle returned exhausted center {score.center}")
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


def mutual_closest_run(inst: Instance, *, memory_cap_bytes: int | None = DEFAULT_MEMORY_CAP_BYTES) -> MutualRun:
    """Reference solver: repeatedly match the global minimum-score pair.

    The pair of minimum Score among (unmatched node, unfilled center)
    pairs is always a mutual closest pair, so matching it greedily yields
    the unique stable solution. The k x n table of distance arrays
    (``compute_center_distances``) is held, each row is ranked by (dist, node)
    (``rank_rows``), and the k ranked rows are merged through a k-entry
    heap in Score order. Like Gale-Shapley, it refuses up front when
    ``model.check_table_memory`` puts the table over ``memory_cap_bytes``.
    Pairs whose node is matched are popped and skipped, and a center's row
    leaves the heap when its quota fills, so each center pops exactly its
    ball up to its worst member: ``pops`` equals circle growing's
    ``settled_total``.
    """
    n = inst.graph.node_count
    k = inst.k
    check_table_memory("mutual", n, k, memory_cap_bytes)
    table = compute_center_distances(inst)
    ranked = rank_rows(table)
    heap = [(table[c][ranked[c][0]], ranked[c][0], c) for c in range(k)]
    heapify(heap)
    next_pos = [1] * k
    remaining = list(inst.quotas)
    match = [-1] * n
    dist_out = [0.0] * n
    matched = 0
    pops = 0
    while matched < n:
        d, u, c = heap[0]
        pops += 1
        if match[u] < 0:
            match[u] = c
            dist_out[u] = d
            matched += 1
            remaining[c] -= 1
            if remaining[c] == 0:
                heappop(heap)
                continue
        # an open center's row always holds an unmatched node further on
        p = next_pos[c]
        v = ranked[c][p]
        heapreplace(heap, (table[c][v], v, c))
        next_pos[c] = p + 1
    return MutualRun(assignment=Assignment(match=match, dist=dist_out), pops=pops)
