"""Problem statement and stability checking for graph districting.

An ``Instance`` fixes a connected graph, an ordered list of center nodes,
and per-center quotas summing to the node count. Preferences on both sides
are the symmetric ``Score`` total order: shortest-path distance with the
(node id, center index) tie-break applied identically from either side, so
every node-center pair has a globally unique rank. ``verify_stable`` is an
independent checker that never trusts solver internals: it works from the
raw per-center distance rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, NamedTuple

from .graph import RoadGraph, dijkstra, is_connected


class Score(NamedTuple):
    """Totally ordered preference value; lower is more preferred.

    Tuple comparison implements the lexicographic (dist, node, center)
    order, which is symmetric by construction: the node and the center
    score each other with the same triple.
    """

    dist: float
    node: int
    center: int


class InstanceError(ValueError):
    """Raised when centers/quotas/graph do not form a feasible instance."""


class MemoryCapExceeded(RuntimeError):
    """A solver refused to run because its estimated scratch memory exceeds the cap."""

    def __init__(self, algorithm: str, required_bytes: int, cap_bytes: int):
        self.algorithm = algorithm
        self.required_bytes = required_bytes
        self.cap_bytes = cap_bytes
        super().__init__(
            f"{algorithm}: estimated {required_bytes} bytes exceeds memory cap {cap_bytes}"
        )


def equal_quotas(n: int, k: int) -> list[int]:
    """Split n into k near-equal quotas; the first n % k centers get the larger one."""
    if k <= 0 or k > n:
        raise InstanceError(f"need 1 <= k <= n, got k={k}, n={n}")
    base, extra = divmod(n, k)
    return [base + 1 if i < extra else base for i in range(k)]


@dataclass(frozen=True)
class Instance:
    """A districting problem: connected graph, ordered centers, quotas summing to n."""

    graph: RoadGraph
    centers: list[int]
    quotas: list[int]

    def __post_init__(self):
        n = self.graph.node_count
        if len(self.centers) == 0:
            raise InstanceError("at least one center required")
        if len(set(self.centers)) != len(self.centers):
            raise InstanceError("centers must be distinct")
        for c in self.centers:
            if not 0 <= c < n:
                raise InstanceError(f"center {c} out of range 0..{n - 1}")
        if len(self.quotas) != len(self.centers):
            raise InstanceError("one quota per center required")
        for q in self.quotas:
            if q <= 0:
                raise InstanceError(f"quotas must be positive, got {q}")
        total = sum(self.quotas)
        if total != n:
            raise InstanceError(
                f"quota sum {total} != node count {n} (deficit {n - total})"
            )
        if not is_connected(self.graph):
            raise InstanceError(
                "graph is not connected; extract the largest component first"
            )

    @property
    def k(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class Assignment:
    """A complete matching: per-node center index and distance to that center."""

    match: list[int]
    dist: list[float]


class QuotaViolation(NamedTuple):
    """A center whose member count differs from its quota."""

    center: int
    expected: int
    actual: int


class BlockingPair(NamedTuple):
    """A node and a center that both prefer each other over their matches."""

    node: int
    center: int
    pair_dist: float     # distance between node and center
    current_dist: float  # distance from node to its assigned center
    worst_node: int      # least-preferred node currently assigned to center
    worst_dist: float


def compute_center_distances(inst: Instance) -> list[list[float]]:
    """One shortest-path row per center, in center order."""
    return [dijkstra(inst.graph, c) for c in inst.centers]


def verify_stable(
    inst: Instance, a: Assignment, dists: list[list[float]]
) -> QuotaViolation | BlockingPair | None:
    """Check quotas, then search for a blocking pair; None means stable.

    A pair (u, c) blocks when u is not assigned to c, u prefers c to its
    assigned center, and c prefers u to its least-preferred assigned node,
    all under the Score total order (so the verdict is well defined even
    with tied distances). Among blocking pairs the one with the smallest
    Score is reported. Quota violations are reported before any search.
    """
    n = inst.graph.node_count
    k = inst.k
    if len(dists) != k:
        raise ValueError(f"expected {k} distance rows, got {len(dists)}")
    if len(a.match) != n:
        raise ValueError(f"assignment covers {len(a.match)} of {n} nodes")
    counts = [0] * k
    for u, c in enumerate(a.match):
        if not 0 <= c < k:
            raise ValueError(f"node {u} assigned to invalid center index {c}")
        counts[c] += 1
    for c in range(k):
        if counts[c] != inst.quotas[c]:
            return QuotaViolation(center=c, expected=inst.quotas[c], actual=counts[c])

    # Worst assigned score per center, as a full Score for tie-safe compares.
    worst: list[Score | None] = [None] * k
    for u, c in enumerate(a.match):
        s = Score(dists[c][u], u, c)
        if worst[c] is None or s > worst[c]:
            worst[c] = s
    best: BlockingPair | None = None
    best_score: Score | None = None
    for c in range(k):
        row = dists[c]
        wc = worst[c]
        assert wc is not None  # quotas are positive, so every center has members
        for u in range(n):
            mu = a.match[u]
            if mu == c:
                continue
            s = Score(row[u], u, c)
            if s < Score(dists[mu][u], u, mu) and s < wc:
                if best_score is None or s < best_score:
                    best_score = s
                    best = BlockingPair(
                        node=u,
                        center=c,
                        pair_dist=row[u],
                        current_dist=dists[mu][u],
                        worst_node=wc.node,
                        worst_dist=wc.dist,
                    )
    return best


def assignment_to_tsv(inst: Instance, a: Assignment) -> str:
    """TSV serialization, one row per node in dense-id order, original ids."""
    g = inst.graph
    lines = ["node_original_id\tcenter_original_id\tdistance"]
    for u, c in enumerate(a.match):
        lines.append(
            f"{g.original_ids[u]}\t{g.original_ids[inst.centers[c]]}\t{a.dist[u]!r}"
        )
    return "\n".join(lines) + "\n"


def assignment_summary(inst: Instance, a: Assignment) -> dict:
    """Per-center member counts and distance statistics."""
    g = inst.graph
    k = inst.k
    counts = [0] * k
    dist_sum = [0.0] * k
    dist_max = [0.0] * k
    for u, c in enumerate(a.match):
        counts[c] += 1
        dist_sum[c] += a.dist[u]
        if a.dist[u] > dist_max[c]:
            dist_max[c] = a.dist[u]
    centers = [
        {
            "index": c,
            "center_original_id": g.original_ids[inst.centers[c]],
            "quota": inst.quotas[c],
            "members": counts[c],
            "max_distance": dist_max[c],
            "mean_distance": dist_sum[c] / counts[c] if counts[c] else 0.0,
        }
        for c in range(k)
    ]
    return {"n": g.node_count, "m": g.edge_count, "k": k, "centers": centers}


def assignment_summary_json(inst: Instance, a: Assignment) -> str:
    return json.dumps(assignment_summary(inst, a), sort_keys=True, indent=2) + "\n"


def parse_assignment_tsv(
    stream: IO[str] | str, graph: RoadGraph, centers: list[int]
) -> Assignment:
    """Read an assignment TSV back against a graph and an ordered center list.

    Raises ValueError when a row names a node or center unknown to the
    graph, when a center id is not in ``centers``, or when node coverage
    is incomplete or duplicated.
    """
    lines = stream.splitlines() if isinstance(stream, str) else list(stream)
    center_index = {graph.original_ids[c]: i for i, c in enumerate(centers)}
    match: list[int | None] = [None] * graph.node_count
    dist = [0.0] * graph.node_count
    for row_no, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("node_original_id"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"assignment row {row_no + 1}: expected 3 tab-separated fields")
        node_orig, center_orig, d = int(parts[0]), int(parts[1]), float(parts[2])
        if not graph.has_original_id(node_orig):
            raise ValueError(f"assignment row {row_no + 1}: unknown node id {node_orig}")
        if center_orig not in center_index:
            raise ValueError(f"assignment row {row_no + 1}: unknown center id {center_orig}")
        u = graph.dense_id(node_orig)
        if match[u] is not None:
            raise ValueError(f"assignment row {row_no + 1}: duplicate node id {node_orig}")
        match[u] = center_index[center_orig]
        dist[u] = d
    missing = [i for i, c in enumerate(match) if c is None]
    if missing:
        raise ValueError(
            f"assignment missing node id {graph.original_ids[missing[0]]}"
        )
    return Assignment(match=match, dist=dist)  # type: ignore[arg-type]
