"""Weighted undirected graph core: ingestion, components, shortest paths.

Graphs are normalized at construction: arcs are symmetrized, parallel
edges collapse to their minimum weight, self-loops are rejected, and node
ids are remapped to a dense 0..n-1 range with the source-file ids kept in
``original_ids``. A constructed ``RoadGraph`` is treated as immutable and
is safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import IO, Iterable

INF = math.inf


class ParseError(ValueError):
    """Raised for malformed graph input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphError(ValueError):
    """Raised for structurally invalid graph operations (e.g. empty graph)."""


@dataclass(frozen=True)
class RoadGraph:
    """Immutable weighted undirected graph with optional node coordinates.

    Fields:
        node_count:   number of nodes; dense ids are 0..node_count-1.
        edge_count:   number of undirected edges after normalization.
        adjacency:    per-node sorted list of (neighbor, weight) pairs.
        coords:       per-node (x, y) coordinates, or None if not supplied.
        original_ids: per-node identifier from the source file.
    """

    node_count: int
    edge_count: int
    adjacency: list[list[tuple[int, float]]]
    coords: list[tuple[float, float]] | None
    original_ids: list[int]
    _orig_index: dict[int, int] = field(repr=False, compare=False, default_factory=dict)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, float]],
        node_ids: Iterable[int] | None = None,
        coords: dict[int, tuple[float, float]] | None = None,
    ) -> "RoadGraph":
        """Build a normalized graph from (u, v, w) triples over original ids.

        ``node_ids`` optionally declares the full node universe (isolated
        nodes included); otherwise the universe is the set of edge endpoints.
        Self-loops and nonpositive/nonfinite weights raise ValueError;
        duplicate edges keep the minimum weight.
        """
        best: dict[tuple[int, int], float] = {}
        endpoints: set[int] = set()
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (w > 0.0) or not math.isfinite(w):
                raise ValueError(f"nonpositive or nonfinite weight {w!r} on edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            old = best.get(key)
            if old is None or w < old:
                best[key] = w
            endpoints.add(u)
            endpoints.add(v)
        universe = set(node_ids) if node_ids is not None else endpoints
        if not universe:
            raise ValueError("empty graph: no nodes")
        if not endpoints <= universe:
            raise ValueError("edge endpoint outside the declared node set")
        ids = sorted(universe)
        index = {orig: i for i, orig in enumerate(ids)}
        adjacency: list[list[tuple[int, float]]] = [[] for _ in ids]
        for (u, v), w in best.items():
            du, dv = index[u], index[v]
            adjacency[du].append((dv, w))
            adjacency[dv].append((du, w))
        for row in adjacency:
            row.sort()
        dense_coords: list[tuple[float, float]] | None = None
        if coords is not None:
            missing = universe - coords.keys()
            if missing:
                raise ValueError(f"node {min(missing)} has no coordinate")
            unknown = coords.keys() - universe
            if unknown:
                raise ValueError(f"coordinate for unknown node {min(unknown)}")
            dense_coords = [coords[orig] for orig in ids]
        return cls(
            node_count=len(ids),
            edge_count=len(best),
            adjacency=adjacency,
            coords=dense_coords,
            original_ids=ids,
            _orig_index=index,
        )

    def dense_id(self, original_id: int) -> int:
        """Map a source-file node id to its dense id."""
        return self._orig_index[original_id]

    def has_original_id(self, original_id: int) -> bool:
        return original_id in self._orig_index


def _lines(stream: IO[str] | str) -> Iterable[str]:
    return stream.splitlines() if isinstance(stream, str) else stream


def parse_dimacs(gr_stream: IO[str] | str, co_stream: IO[str] | str | None = None) -> RoadGraph:
    """Parse a DIMACS shortest-path `.gr` file, optionally with a `.co` file.

    Recognized `.gr` lines: `c ...` comments, one `p sp <n> <m>` header,
    and `a <u> <v> <w>` arcs with 1-based node ids. Arcs are symmetrized
    and duplicates collapse to the minimum weight. `.co` lines are
    `v <id> <x> <y>`; when given, every node must receive a coordinate.
    """
    n_declared: int | None = None
    edges: list[tuple[int, int, float]] = []
    for line_no, raw in enumerate(_lines(gr_stream), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        kind = tokens[0]
        if kind == "p":
            if n_declared is not None:
                raise ParseError("duplicate problem header", line_no)
            if len(tokens) != 4 or tokens[1] != "sp":
                raise ParseError("malformed problem header (expected 'p sp <n> <m>')", line_no)
            try:
                n_declared = int(tokens[2])
                int(tokens[3])
            except ValueError:
                raise ParseError("non-integer counts in problem header", line_no) from None
            if n_declared <= 0:
                raise ParseError("empty graph: node count must be positive", line_no)
        elif kind == "a":
            if n_declared is None:
                raise ParseError("arc line before problem header", line_no)
            if len(tokens) != 4:
                raise ParseError("malformed arc line (expected 'a <u> <v> <w>')", line_no)
            try:
                u, v = int(tokens[1]), int(tokens[2])
                w = float(tokens[3])
            except ValueError:
                raise ParseError("malformed arc fields", line_no) from None
            if not 1 <= u <= n_declared or not 1 <= v <= n_declared:
                raise ParseError(f"arc references node id outside 1..{n_declared}", line_no)
            if u == v:
                raise ParseError(f"self-loop at node {u}", line_no)
            if not (w > 0.0) or not math.isfinite(w):
                raise ParseError(f"nonpositive weight {tokens[3]}", line_no)
            edges.append((u, v, w))
        else:
            raise ParseError(f"unrecognized line type {kind!r}", line_no)
    if n_declared is None:
        raise ParseError("missing problem header")
    coords = _parse_dimacs_coords(co_stream, n_declared) if co_stream is not None else None
    return RoadGraph.from_edges(edges, node_ids=range(1, n_declared + 1), coords=coords)


def _parse_dimacs_coords(co_stream: IO[str] | str, n_declared: int) -> dict[int, tuple[float, float]]:
    coords: dict[int, tuple[float, float]] = {}
    for line_no, raw in enumerate(_lines(co_stream), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c" or tokens[0] == "p":
            continue
        if tokens[0] != "v" or len(tokens) != 4:
            raise ParseError("malformed coordinate line (expected 'v <id> <x> <y>')", line_no)
        try:
            node = int(tokens[1])
            x, y = float(tokens[2]), float(tokens[3])
        except ValueError:
            raise ParseError("malformed coordinate fields", line_no) from None
        if not 1 <= node <= n_declared:
            raise ParseError(f"coordinate for unknown node {node}", line_no)
        if node in coords:
            raise ParseError(f"duplicate coordinate for node {node}", line_no)
        coords[node] = (x, y)
    missing = set(range(1, n_declared + 1)) - coords.keys()
    if missing:
        raise ParseError(f"node {min(missing)} has no coordinate")
    return coords


def parse_tsv(stream: IO[str] | str) -> RoadGraph:
    """Parse a whitespace-separated edge list: `u v w` lines.

    Lines starting with `#node` declare coordinates (`#node <id> <x> <y>`)
    and may appear anywhere; other `#` lines are comments. Normalization
    matches parse_dimacs; coordinates, when present, must cover every node.
    """
    edges: list[tuple[int, int, float]] = []
    coord_lines: list[tuple[int, int, float, float]] = []
    for line_no, raw in enumerate(_lines(stream), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            tokens = stripped.split()
            if tokens[0] != "#node":
                continue
            if len(tokens) != 4:
                raise ParseError("malformed coordinate line (expected '#node <id> <x> <y>')", line_no)
            try:
                coord_lines.append((line_no, int(tokens[1]), float(tokens[2]), float(tokens[3])))
            except ValueError:
                raise ParseError("malformed coordinate fields", line_no) from None
            continue
        tokens = stripped.split()
        if len(tokens) != 3:
            raise ParseError("malformed edge line (expected 'u v w')", line_no)
        try:
            u, v = int(tokens[0]), int(tokens[1])
            w = float(tokens[2])
        except ValueError:
            raise ParseError("malformed edge fields", line_no) from None
        if u == v:
            raise ParseError(f"self-loop at node {u}", line_no)
        if not (w > 0.0) or not math.isfinite(w):
            raise ParseError(f"nonpositive weight {tokens[2]}", line_no)
        edges.append((u, v, w))
    if not edges:
        raise ParseError("empty graph: no edges")
    known = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    coords: dict[int, tuple[float, float]] | None = None
    if coord_lines:
        coords = {}
        for line_no, node, x, y in coord_lines:
            if node not in known:
                raise ParseError(f"coordinate for unknown node {node}", line_no)
            if node in coords:
                raise ParseError(f"duplicate coordinate for node {node}", line_no)
            coords[node] = (x, y)
        missing = known - coords.keys()
        if missing:
            raise ParseError(f"node {min(missing)} has no coordinate")
    return RoadGraph.from_edges(edges, coords=coords)


def write_tsv(g: RoadGraph) -> str:
    """Serialize to the TSV edge-list format using original ids.

    parse_tsv(write_tsv(g)) reconstructs an identical graph, provided g has
    no isolated nodes (the edge-list format cannot express them).
    """
    out: list[str] = []
    for u in range(g.node_count):
        ou = g.original_ids[u]
        for v, w in g.adjacency[u]:
            if u < v:
                out.append(f"{ou}\t{g.original_ids[v]}\t{w!r}")
    if g.coords is not None:
        for u in range(g.node_count):
            x, y = g.coords[u]
            out.append(f"#node {g.original_ids[u]} {x!r} {y!r}")
    return "\n".join(out) + "\n"


def components(g: RoadGraph) -> list[list[int]]:
    """Connected components as lists of dense node ids, each list sorted."""
    seen = bytearray(g.node_count)
    comps: list[list[int]] = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v, _ in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = 1
                    comp.append(v)
                    frontier.append(v)
        comp.sort()
        comps.append(comp)
    return comps


def is_connected(g: RoadGraph) -> bool:
    return len(components(g)) == 1


def largest_component(g: RoadGraph) -> RoadGraph:
    """Induced subgraph on the largest connected component, ids re-densified.

    Ties between equal-size components go to the one containing the
    smallest original id. Original ids and coordinates are preserved.
    """
    if g.node_count == 0:
        raise GraphError("empty graph")
    comps = components(g)
    best = max(comps, key=lambda c: (len(c), -g.original_ids[c[0]]))
    if len(best) == g.node_count:
        return g
    remap = {old: new for new, old in enumerate(best)}
    adjacency = [
        [(remap[v], w) for v, w in g.adjacency[old]]
        for old in best
    ]
    edge_count = sum(len(row) for row in adjacency) // 2
    return RoadGraph(
        node_count=len(best),
        edge_count=edge_count,
        adjacency=adjacency,
        coords=[g.coords[old] for old in best] if g.coords is not None else None,
        original_ids=[g.original_ids[old] for old in best],
        _orig_index={g.original_ids[old]: new for new, old in enumerate(best)},
    )


def dijkstra(g: RoadGraph, source: int) -> list[float]:
    """Single-source shortest paths with a binary heap and lazy deletion;
    distance per node, inf where unreachable."""
    n = g.node_count
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range 0..{n - 1}")
    dist = [INF] * n
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    adjacency = g.adjacency
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        for v, w in adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist
