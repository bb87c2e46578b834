"""Problem statement and stability checking for graph districting.

An ``Instance`` fixes a connected graph, an ordered list of center nodes,
and per-center quotas summing to the node count. Preferences on both sides
are the symmetric ``Score`` total order: shortest-path distance with the
(node id, center index) tie-break applied identically from either side, so
every node-center pair has a globally unique rank. ``verify_stable`` is an
independent checker that never trusts solver internals: it works from the
raw per-center distance rows and checks every distance the assignment
claims against them.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import compress
from operator import le
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .graph import INF, RoadGraph, _lines, dijkstra, is_connected


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


# Bytes held by a solver that materializes the k x n distance table:
# Gale-Shapley's with both sides read, in either order, or the mutual-
# closest reference. Per (center, node) pair: an 8-byte slot in the
# center's distance array and a 4-byte id in each side's ranked lists, and
# one byte of headroom. Per node: the one boxed row alive while a search
# runs, one row's ranking scratch (its boxed ``tolist()``, a boxed index
# and a key slot) and a node's ranked-list header, which dominate at small k.
# Per center: array headers with their slots and one column's boxed float.
PAIR_ENTRY_BYTES = 17
NODE_BYTES = 180
CENTER_BYTES = 256
DEFAULT_MEMORY_CAP_BYTES = 2 * 1024**3


def check_table_memory(algorithm: str, n: int, k: int, cap_bytes: int | None) -> int:
    """The estimated peak bytes of ``algorithm`` holding a k x n table.
    Raises MemoryCapExceeded when it exceeds ``cap_bytes``; None lifts the cap."""
    required = n * k * PAIR_ENTRY_BYTES + n * NODE_BYTES + k * CENTER_BYTES
    if cap_bytes is not None and required > cap_bytes:
        raise MemoryCapExceeded(algorithm, required, cap_bytes)
    return required


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


class DistanceMismatch(NamedTuple):
    """A node whose claimed distance to its assigned center is not the true one."""

    node: int
    center: int
    claimed: float
    true: float


class BlockingPair(NamedTuple):
    """A node and a center that both prefer each other over their matches."""

    node: int
    center: int
    pair_dist: float     # distance between node and center
    current_dist: float  # distance from node to its assigned center
    worst_node: int      # least-preferred node currently assigned to center
    worst_dist: float


def compute_center_distances(inst: Instance) -> list[array]:
    """One shortest-path row per center, in center order: an ``array("d")``
    copied from each search as it ends, so one boxed row is alive at a time."""
    return [array("d", dijkstra(inst.graph, c)) for c in inst.centers]


def rank_rows(rows) -> list[array]:
    """Each ``array("d")`` row's node ids in ``(dist, node)`` order, best first:
    a center's preference list. A stable sort over the index range breaks ties
    by node id; its keys index ``row.tolist()``, which is faster than the array."""
    return [array("i", sorted(range(len(row)), key=row.tolist().__getitem__)) for row in rows]


def _members_by_center(inst: Instance, a: Assignment) -> list[list[int]]:
    """Each center's assigned nodes; rejects a match or dist of the wrong
    length or a center index outside 0..k-1."""
    n = inst.graph.node_count
    k = inst.k
    if len(a.match) != n:
        raise ValueError(f"assignment covers {len(a.match)} of {n} nodes")
    if len(a.dist) != n:
        raise ValueError(f"assignment has {len(a.dist)} distances for {n} nodes")
    members: list[list[int]] = [[] for _ in range(k)]
    for u, c in enumerate(a.match):
        if not 0 <= c < k:
            raise ValueError(f"node {u} assigned to invalid center index {c}")
        members[c].append(u)
    return members


def member_ball_distances(inst: Instance, a: Assignment) -> Iterator[list[float]]:
    """Distance rows that ``verify_stable`` can check ``a`` with, searching
    each center only out to its farthest assigned member.

    ``a`` is checked at once; each row's ``dijkstra`` runs only when the
    row is read. A row has one entry per node. It is exact for every node
    no farther from the center than the center's worst member, and
    elsewhere holds inf or a tentative distance, never below the true one.
    A center with no members searches nothing. Reads only the graph and the
    assignment.
    """
    members = _members_by_center(inst, a)
    return (dijkstra(inst.graph, c, m) for c, m in zip(inst.centers, members))


def verify_stable(
    inst: Instance, a: Assignment, dists: Iterable[Sequence[float]]
) -> QuotaViolation | DistanceMismatch | BlockingPair | None:
    """Check quotas, then each claimed distance, then search for a blocking
    pair; None means stable.

    A pair (u, c) blocks when u is not assigned to c, u prefers c to its
    assigned center, and c prefers u to its least-preferred assigned node,
    all under the Score total order (so the verdict is well defined even
    with tied distances). Among blocking pairs the one with the smallest
    Score is reported. Quota violations are reported first, before any row
    is read, then the lowest node whose ``a.dist`` entry differs from its
    row entry.

    ``dists`` yields one row per center, in center order; it is read once,
    a row at a time. Full rows (``compute_center_distances``) work, and so
    does any row that is exact for every node scoring at or below the
    center's worst member and elsewhere never below the true distance
    (``member_ball_distances``): a node outside that ball then scores
    above the worst member whatever its entry holds, so it fails the
    ``d > wd`` or ``s < wc`` test. Both kinds are exact at every member, so
    each claimed distance is compared with the true one. Each row is
    scanned against the claimed distances, which are the true ones once
    none is wrong, and only then does the scan's verdict count.
    """
    n = inst.graph.node_count
    k = inst.k
    members = _members_by_center(inst, a)
    for c in range(k):
        if len(members[c]) != inst.quotas[c]:
            return QuotaViolation(center=c, expected=inst.quotas[c], actual=len(members[c]))

    match, own = a.match, a.dist
    # Worst claimed score per center, as a full Score for tie-safe compares.
    worst = [max(Score(own[u], u, c) for u in m) for c, m in enumerate(members)]
    wrong: DistanceMismatch | None = None
    best: BlockingPair | None = None
    best_score: Score | None = None
    rows = 0
    for c, row in enumerate(dists):
        rows += 1
        if c >= k:
            continue
        if len(row) != n:
            raise ValueError(f"distance row {c} has {len(row)} entries, expected {n}")
        # Members ascend, so the first wrong one is this row's lowest.
        bad = next((u for u in members[c] if own[u] != row[u]), None)
        if bad is not None and (wrong is None or bad < wrong.node):
            wrong = DistanceMismatch(bad, c, own[bad], row[bad])
        wc = worst[c]
        wd = wc.dist
        # (u, c) can block only if row[u] <= own[u] and row[u] <= wd, so
        # Scores are built only for the pairs that pass both float tests.
        for u in compress(range(n), map(le, row, own)):
            mu = match[u]
            if mu == c:
                continue
            d = row[u]
            if d > wd:
                continue
            s = Score(d, u, c)
            if s < Score(own[u], u, mu) and s < wc:
                if best_score is None or s < best_score:
                    best_score = s
                    best = BlockingPair(
                        node=u,
                        center=c,
                        pair_dist=d,
                        current_dist=own[u],
                        worst_node=wc.node,
                        worst_dist=wd,
                    )
    if rows != k:
        raise ValueError(f"expected {k} distance rows, got {rows}")
    return wrong or best


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


def read_assignment_rows(stream: IO[str] | str) -> list[tuple[int, int, int, float]]:
    """An assignment TSV's data rows as (row number, node id, center id, distance).
    Raises ValueError naming a row that is not three tab-separated numbers with a finite distance."""
    rows = []
    for row_no, raw in enumerate(_lines(stream), start=1):
        line = raw.strip()
        if not line or line.startswith("node_original_id"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"assignment row {row_no}: expected 3 tab-separated fields")
        try:
            rows.append((row_no, int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(f"assignment row {row_no}: malformed fields") from None
        if not -INF < rows[-1][3] < INF:
            raise ValueError(f"assignment row {row_no}: nonfinite distance {rows[-1][3]!r}")
    return rows


def assignment_from_rows(
    rows: list[tuple[int, int, int, float]], graph: RoadGraph, centers: list[int]
) -> Assignment:
    """Resolve read_assignment_rows output against a graph and an ordered center list.
    Raises ValueError for a node or center id unknown to the graph or to ``centers``,
    and for incomplete or duplicated node coverage."""
    center_index = {graph.original_ids[c]: i for i, c in enumerate(centers)}
    match: list[int | None] = [None] * graph.node_count
    dist = [0.0] * graph.node_count
    for row_no, node_orig, center_orig, d in rows:
        if not graph.has_original_id(node_orig):
            raise ValueError(f"assignment row {row_no}: unknown node id {node_orig}")
        if center_orig not in center_index:
            raise ValueError(f"assignment row {row_no}: unknown center id {center_orig}")
        u = graph.dense_id(node_orig)
        if match[u] is not None:
            raise ValueError(f"assignment row {row_no}: duplicate node id {node_orig}")
        match[u] = center_index[center_orig]
        dist[u] = d
    if None in match:
        raise ValueError(f"assignment missing node id {graph.original_ids[match.index(None)]}")
    return Assignment(match=match, dist=dist)  # type: ignore[arg-type]


def parse_assignment_tsv(stream: IO[str] | str, graph: RoadGraph, centers: list[int]) -> Assignment:
    """Read an assignment TSV back against a graph and an ordered center list;
    the errors are those of read_assignment_rows and assignment_from_rows."""
    return assignment_from_rows(read_assignment_rows(stream), graph, centers)
