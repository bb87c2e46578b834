"""Shared test utilities: seeded instance generators and independent checks.

Everything here is deliberately simple and separate from the library's
own machinery so that tests cross-check rather than echo the
implementation.
"""

from __future__ import annotations

from heapq import heappop, heappush

from stabledistrict import Instance, RoadGraph, Score, equal_quotas, generate_grid
from stabledistrict.bench import SplitMix64, derive_seed, sample_centers
from stabledistrict.nnc import DnnOracle, Side


def path_graph(n: int, weights: list[float] | None = None) -> RoadGraph:
    if weights is None:
        weights = [1.0] * (n - 1)
    return RoadGraph.from_edges(
        [(i, i + 1, weights[i]) for i in range(n - 1)], node_ids=range(n)
    )


def cycle_graph(n: int) -> RoadGraph:
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    return RoadGraph.from_edges(edges)


def random_quotas(n: int, k: int, rng: SplitMix64) -> list[int]:
    quotas = [1] * k
    for _ in range(n - k):
        quotas[rng.next_below(k)] += 1
    return quotas


def random_grid_instance(seed: int, max_side: int = 10, equal: bool | None = None) -> Instance:
    """Seeded random jittered-grid instance with random centers and quotas."""
    rng = SplitMix64(derive_seed(seed, 0xA5))
    w = 2 + rng.next_below(max_side - 1)
    h = 2 + rng.next_below(max_side - 1)
    g = generate_grid(w, h, jitter_seed=derive_seed(seed, 0xB6))
    n = g.node_count
    k = 1 + rng.next_below(min(n, 12))
    centers = sample_centers(n, k, derive_seed(seed, 0xC7))
    if equal is None:
        equal = seed % 2 == 0
    quotas = equal_quotas(n, k) if equal else random_quotas(n, k, rng)
    return Instance(g, centers, quotas)


def random_sparse_instance(seed: int, max_n: int = 40) -> Instance:
    """Random connected non-grid graph: a random tree plus a few extra edges."""
    rng = SplitMix64(derive_seed(seed, 0xD8))
    n = 1 + rng.next_below(max_n)
    edges = []
    for v in range(1, n):
        u = rng.next_below(v)
        edges.append((u, v, 1.0 + rng.next_below(1 << 10) / 1024.0))
    for _ in range(rng.next_below(n + 1)):
        u = rng.next_below(n)
        v = rng.next_below(n)
        if u != v:
            edges.append((u, v, 1.0 + rng.next_below(1 << 10) / 1024.0))
    g = RoadGraph.from_edges(edges, node_ids=range(n))
    k = 1 + rng.next_below(min(n, 8))
    centers = sample_centers(n, k, derive_seed(seed, 0xE9))
    quotas = random_quotas(n, k, rng) if n > k and seed % 3 else equal_quotas(n, k)
    return Instance(g, centers, quotas)


def acceptance_grid_instance(i: int) -> Instance:
    """Instance i of the 200-case equivalence suite.

    Jittered grids skewed toward small sides, with fifteen 20x20 and five
    50x50 cases; k cycles through {1, 2, 5, 17, n/4} and quotas alternate
    equal/random. Fully determined by i.
    """
    rng = SplitMix64(derive_seed(1000 + i, 0x51))
    if i < 180:
        w, h = 2 + rng.next_below(11), 2 + rng.next_below(11)
    elif i < 195:
        w = h = 20
    else:
        w = h = 50
    g = generate_grid(w, h, jitter_seed=derive_seed(i, 0x52))
    n = w * h
    k_choice = (1, 2, 5, 17, 0)[i % 5]
    k = max(1, n // 4) if k_choice == 0 else min(k_choice, n)
    centers = sample_centers(n, k, derive_seed(i, 0x53))
    quotas = equal_quotas(n, k) if i % 2 == 0 else random_quotas(n, k, rng)
    return Instance(g, centers, quotas)


def brute_force_blocking_pairs(inst: Instance, match: list[int], table: list[list[float]]):
    """All blocking pairs by direct enumeration, sorted by Score."""
    k = inst.k
    n = inst.graph.node_count
    worst = {}
    for u, c in enumerate(match):
        s = (table[c][u], u, c)
        if c not in worst or s > worst[c]:
            worst[c] = s
    pairs = []
    for c in range(k):
        for u in range(n):
            if match[u] == c:
                continue
            s = (table[c][u], u, c)
            cur = (table[match[u]][u], u, match[u])
            if s < cur and s < worst[c]:
                pairs.append(s)
    return sorted(pairs)


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""

    def ranks(values: list[float]) -> list[float]:
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for t in range(i, j + 1):
                out[order[t]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    ) ** 0.5
    return num / den if den else 0.0


def least_squares_slope(xs: list[float], ys: list[float]) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


class _TruncatedCenterOracle:
    """Baseline centers-side oracle: fresh truncated Dijkstra per query.

    The search from the query node settles vertices in (distance, node id)
    order and stops at the first distance at which an active center
    settles; among active centers at that distance the smallest center
    index wins, matching the Score tie-break exactly.
    """

    def __init__(self, inst: Instance):
        self._adjacency = inst.graph.adjacency
        self._center_index = {v: i for i, v in enumerate(inst.centers)}
        self._active = [True] * inst.k
        self._alive = inst.k

    def nearest(self, q: int) -> tuple[Score, int] | None:
        if self._alive == 0:
            return None
        dist = {q: 0.0}
        heap = [(0.0, q)]
        found_d: float | None = None
        found_ci = -1
        while heap:
            d, v = heappop(heap)
            if found_d is not None and d > found_d:
                break
            if d > dist[v]:
                continue
            ci = self._center_index.get(v)
            if ci is not None and self._active[ci]:
                if found_d is None or ci < found_ci:
                    found_d = d
                    found_ci = ci
            if found_d is not None:
                continue  # equal-distance plateau: settle but do not relax
            for nb, w in self._adjacency[v]:
                nd = d + w
                if nd < dist.get(nb, float("inf")):
                    dist[nb] = nd
                    heappush(heap, (nd, nb))
        if found_d is None:
            return None
        return Score(found_d, q, found_ci), found_ci

    def remove(self, x: int) -> None:
        if self._active[x]:
            self._active[x] = False
            self._alive -= 1


class _TruncatedNodeOracle:
    """Baseline nodes-side oracle: fresh truncated Dijkstra per query center."""

    def __init__(self, inst: Instance):
        self._adjacency = inst.graph.adjacency
        self._centers = inst.centers
        self._active = bytearray([1]) * inst.graph.node_count
        self._alive = inst.graph.node_count

    def nearest(self, q: int) -> tuple[Score, int] | None:
        if self._alive == 0:
            return None
        start = self._centers[q]
        dist = {start: 0.0}
        heap = [(0.0, start)]
        while heap:
            d, v = heappop(heap)
            if d > dist[v]:
                continue
            if self._active[v]:
                return Score(d, v, q), v
            for nb, w in self._adjacency[v]:
                nd = d + w
                if nd < dist.get(nb, float("inf")):
                    dist[nb] = nd
                    heappush(heap, (nd, nb))
        return None

    def remove(self, x: int) -> None:
        if self._active[x]:
            self._active[x] = 0
            self._alive -= 1


def truncated_dijkstra_oracle(inst: Instance, side: Side) -> DnnOracle:
    """Reference DnnOracle for the fast pair: every query runs a fresh
    shortest-path search from the query agent, stopped at the first active
    settle, with no state shared between queries."""
    if side == "centers":
        return _TruncatedCenterOracle(inst)
    if side == "nodes":
        return _TruncatedNodeOracle(inst)
    raise ValueError(f"unknown side {side!r}")
