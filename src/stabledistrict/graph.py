"""Weighted undirected graph core: ingestion, components, shortest paths.

Graphs are normalized at construction: arcs are symmetrized, parallel
edges collapse to their minimum weight, self-loops are rejected, and node
ids are remapped to a dense 0..n-1 range with the source-file ids kept in
``original_ids``. The parsers validate each line once and fold it straight
into the edge map that ``RoadGraph.from_edges`` also builds. The three
constructors share the coordinate rules: the parsers read each coordinate
line with ``_coordinate``, all three check placement with
``_place_coords`` once the whole input is read, and all three end in
``_build``. A constructed ``RoadGraph`` is treated as immutable and is
safe for concurrent reads. Its one cache, ``_weight_span``, is written
whole and only with values that hold for the graph, so a reader that races
a write at worst recomputes the weights or runs the heap once more, and
gets the same row.

Shortest paths have two drains, both behind ``dijkstra``.
``settle_stream`` is a binary-heap Dijkstra that yields nodes as they
settle; targeted searches, and full searches that ``fits_bucket_ring``
turns away, use it. A full search of a graph that passes
``fits_bucket_ring`` drains ``_drain_ring``, Dial's bucket queue,
instead; its rows equal the heap's bit for bit. A graph whose weight sum
is too large for the ring may still pass by the radius its first full
search records: integer road weights do. Circle growing runs its own
search (``circle.py``), so it shares no search code with verify.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from typing import IO, Iterable, Iterator

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
    # _weight_range's (w_min, w_max, bound, radius), filled on first use. A
    # field, not a cached property: that would give the instance a real
    # __dict__, and every attribute read of the graph would get slower.
    _weight_span: tuple[float, float, float, float | None] | None = field(
        repr=False, compare=False, default=None)

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
        Self-loops, nonpositive/nonfinite weights and nonfinite coordinates
        raise ValueError; duplicate edges keep the minimum weight. Then an
        unknown node's coordinate, then a node without one, raise ParseError.
        """
        best: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not 0.0 < w < INF:
                raise ValueError(f"nonpositive or nonfinite weight {w!r} on edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if w < best.setdefault(key, w):
                best[key] = w
        endpoints = set(chain.from_iterable(best))
        universe = set(node_ids) if node_ids is not None else endpoints
        if not universe:
            raise ValueError("empty graph: no nodes")
        if not endpoints <= universe:
            raise ValueError("edge endpoint outside the declared node set")
        ids = sorted(universe)
        if coords is not None:
            for orig, (x, y) in coords.items():
                if not (-INF < x < INF and -INF < y < INF):
                    raise ValueError(f"nonfinite coordinates ({x!r}, {y!r}) for node {orig}")
            coords = _place_coords(dict.fromkeys(ids), [(None, orig, coords[orig]) for orig in sorted(coords)])
        return cls._build(best, ids, coords)

    @classmethod
    def _build(cls, best: dict[tuple[int, int], float], ids: list[int], coords) -> "RoadGraph":
        """The build step every constructor ends in: ``best`` is the folded
        edge map ``{(a, b): w}`` with a < b over original ids, ``ids`` the
        sorted original ids, ``coords`` the dense coordinates or None."""
        n = len(ids)
        index = dict(zip(ids, range(n)))
        lo = ids[0]
        if ids[-1] - lo == n - 1:  # contiguous ids, as in every DIMACS file: dense id is id - lo,
            pos = list(index.values())  # read from a list so the rows share index's n ints
        else:
            pos, lo = index, 0
        adjacency: list[list[tuple[int, float]]] = [[] for _ in ids]
        for (u, v), w in best.items():
            u, v = pos[u - lo], pos[v - lo]
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
        for row in adjacency:
            row.sort()
        return cls(n, len(best), adjacency, coords, ids, index)

    def dense_id(self, original_id: int) -> int:
        """Map a source-file node id to its dense id."""
        return self._orig_index[original_id]

    def has_original_id(self, original_id: int) -> bool:
        return original_id in self._orig_index


def _lines(stream: IO[str] | str) -> Iterable[str]:
    return stream.splitlines() if isinstance(stream, str) else stream


def _coordinate(tokens: list[str], line_no: int, tag: str) -> tuple[int, int, tuple[float, float]]:
    """Read one coordinate line ``<tag> <id> <x> <y>``, already split into
    ``tokens``, as ``(line_no, id, (x, y))``; the coordinates must be finite."""
    if len(tokens) != 4 or tokens[0] != tag:
        raise ParseError(f"malformed coordinate line (expected '{tag} <id> <x> <y>')", line_no)
    try:
        node, x, y = int(tokens[1]), float(tokens[2]), float(tokens[3])
    except ValueError:
        raise ParseError("malformed coordinate fields", line_no) from None
    if not (-INF < x < INF and -INF < y < INF):
        raise ParseError(f"nonfinite coordinates {tokens[2]} {tokens[3]}", line_no)
    return line_no, node, (x, y)


def _place_coords(ids, coord_lines) -> list[tuple[float, float]]:
    """Place ``(line_no, id, (x, y))`` coordinate lines on ``ids`` once the
    whole input is read; return the coordinates in ``ids`` order.

    ``ids`` iterates the sorted node ids and answers ``in`` in O(1) (a range
    or a dict). An unknown or repeated id is reported at its line, in line
    order, then the smallest id without a coordinate. Nothing of ``ids``'
    size is built before every id is covered, so a DIMACS header declaring a
    huge node count costs only its coordinate file's lines.
    """
    placed: dict[int, tuple[float, float]] = {}
    for line_no, node, xy in coord_lines:
        if node not in ids:
            raise ParseError(f"coordinate for unknown node {node}", line_no)
        if node in placed:
            raise ParseError(f"duplicate coordinate for node {node}", line_no)
        placed[node] = xy
    try:
        return [placed[v] for v in ids]
    except KeyError as missing:
        raise ParseError(f"node {missing.args[0]} has no coordinate") from None


def parse_dimacs(gr_stream: IO[str] | str, co_stream: IO[str] | str | None = None) -> RoadGraph:
    """Parse a DIMACS shortest-path `.gr` file, optionally with a `.co` file.

    Recognized `.gr` lines: `c ...` comments, one `p sp <n> <m>` header,
    and `a <u> <v> <w>` arcs with 1-based node ids. Arcs are symmetrized
    and duplicates collapse to the minimum weight. `.co` lines are
    `v <id> <x> <y>`; when given, every node must receive a finite coordinate.
    Without a `.co` file the header may declare at most 2a + 1 nodes for a arcs.
    """
    n_declared: int | None = None
    arcs = 0
    best: dict[tuple[int, int], float] = {}
    for line_no, raw in enumerate(_lines(gr_stream), start=1):
        tokens = raw.split()
        kind = tokens[0] if tokens else "c"
        if kind == "a":
            if n_declared is None:
                raise ParseError("arc line before problem header", line_no)
            if len(tokens) != 4:
                raise ParseError("malformed arc line (expected 'a <u> <v> <w>')", line_no)
            try:
                u, v, w = int(tokens[1]), int(tokens[2]), float(tokens[3])
            except ValueError:
                raise ParseError("malformed arc fields", line_no) from None
            if not (0 < u <= n_declared and 0 < v <= n_declared):
                raise ParseError(f"arc references node id outside 1..{n_declared}", line_no)
            if u == v:
                raise ParseError(f"self-loop at node {u}", line_no)
            if not 0.0 < w < INF:
                raise ParseError(f"nonpositive weight {tokens[3]}", line_no)
            key = (u, v) if u < v else (v, u)
            if w < best.setdefault(key, w):
                best[key] = w
            arcs += 1
        elif kind == "p":
            if n_declared is not None:
                raise ParseError("duplicate problem header", line_no)
            header_line = line_no
            if len(tokens) != 4 or tokens[1] != "sp":
                raise ParseError("malformed problem header (expected 'p sp <n> <m>')", line_no)
            try:
                n_declared, _ = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError("non-integer counts in problem header", line_no) from None
            if n_declared <= 0:
                raise ParseError("empty graph: node count must be positive", line_no)
        elif kind != "c":
            raise ParseError(f"unrecognized line type {kind!r}", line_no)
    if n_declared is None:
        raise ParseError("missing problem header")
    if co_stream is None and n_declared > 2 * arcs + 1:
        raise ParseError(f"problem header declares {n_declared} nodes;"
                         f" {arcs} arc line(s) allow at most {2 * arcs + 1}", header_line)
    ids, coords = range(1, n_declared + 1), None
    if co_stream is not None:
        lines = enumerate(map(str.split, _lines(co_stream)), start=1)
        coords = _place_coords(ids, [
            _coordinate(tokens, line_no, "v") for line_no, tokens in lines if tokens and tokens[0] not in ("c", "p")])
    return RoadGraph._build(best, list(ids), coords)


def parse_tsv(stream: IO[str] | str) -> RoadGraph:
    """Parse a whitespace-separated edge list: `u v w` lines.

    Lines starting with `#node` declare coordinates (`#node <id> <x> <y>`)
    and may appear anywhere; other `#` lines are comments. Normalization
    matches parse_dimacs; coordinates, when present, must be finite and cover
    every node.
    """
    best: dict[tuple[int, int], float] = {}
    coord_lines: list[tuple[int, int, tuple[float, float]]] = []
    for line_no, raw in enumerate(_lines(stream), start=1):
        tokens = raw.split()
        head = tokens[0] if tokens else "#"
        if head[0] == "#":
            if head == "#node":
                coord_lines.append(_coordinate(tokens, line_no, head))
            continue
        if len(tokens) != 3:
            raise ParseError("malformed edge line (expected 'u v w')", line_no)
        try:
            u, v, w = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise ParseError("malformed edge fields", line_no) from None
        if u == v:
            raise ParseError(f"self-loop at node {u}", line_no)
        if not 0.0 < w < INF:
            raise ParseError(f"nonpositive weight {tokens[2]}", line_no)
        key = (u, v) if u < v else (v, u)
        if w < best.setdefault(key, w):
            best[key] = w
    if not best:
        raise ParseError("empty graph: no edges")
    ids = sorted(set(chain.from_iterable(best)))
    return RoadGraph._build(best, ids, _place_coords(dict.fromkeys(ids), coord_lines) if coord_lines else None)


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
    remap = [0] * g.node_count
    for new, old in enumerate(best):
        remap[old] = new
    adjacency = [[(remap[v], w) for v, w in g.adjacency[old]] for old in best]
    original_ids = [g.original_ids[old] for old in best]
    return RoadGraph(
        node_count=len(best),
        edge_count=sum(map(len, adjacency)) // 2,
        adjacency=adjacency,
        coords=[g.coords[old] for old in best] if g.coords is not None else None,
        original_ids=original_ids,
        _orig_index=dict(zip(original_ids, range(len(best)))),
    )


def settle_stream(
    adjacency: list[list[tuple[int, float]]], source: int, dist
) -> Iterator[tuple[float, int]]:
    """Dijkstra from ``source`` as a stream: yields each node it settles as
    ``(d, v)``, in pop order. That is non-decreasing ``(d, v)`` order unless
    rounding absorbs a weight (``d + w == d``), which can push a tied node
    with a smaller id after a pop; ``settles_in_order`` rules that out.

    A binary heap with lazy deletion; stale entries are skipped. ``dist`` is
    the caller's store of tentative distances, indexed by node, that reads
    inf for a node not yet reached: a list, or a dict with that default.
    ``dijkstra``, the stream's one caller in the package, passes a list.
    A settled node's arcs are relaxed into it only when the stream is
    resumed, so a consumer that stops after a yield, as ``dijkstra``'s
    targeted search does beyond its tie band, never relaxes that node.
    """
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        entry = heappop(heap)
        d, u = entry
        if d > dist[u]:
            continue  # stale entry
        yield entry
        for v, w in adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))


def _drain_ring(
    adjacency: list[list[tuple[int, float]]], source: int, dist: list[float], w_min: float, w_max: float
) -> None:
    """A full search from ``source`` into ``dist`` by Dial's bucket queue.

    Bucket b holds the entries ``(d, v)`` with ``d`` in ``[b, b + 1)`` times
    ``w_min``, kept in a ring of ``floor(w_max / w_min) + 2`` slots: every
    relaxation lands less than a full turn ahead, so a slot is reused only
    once it is drained. An entry with ``d > dist[v]`` is stale. A slot is drained
    again until it stays empty, so a relaxation that rounding lands in the
    current slot is corrected, and the search ends after a full turn of
    empty slots. The rows equal ``settle_stream``'s bit for bit: any order
    of relaxations that ends with every node's arcs relaxed at its final
    distance yields the same floating-point row, the minimum over paths.
    """
    size = int(w_max / w_min) + 2
    ring: list[list[tuple[float, int]]] = [[] for _ in range(size)]
    dist[source] = 0.0
    ring[0].append((0.0, source))
    slot = empty = 0
    while empty < size:
        entries = ring[slot]
        if not entries:
            empty += 1
            slot = (slot + 1) % size
            continue
        empty = 0
        ring[slot] = []
        for d, u in entries:
            if d > dist[u]:
                continue  # stale entry
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    ring[int(nd / w_min) % size].append((nd, v))


def _weight_range(g: RoadGraph) -> tuple[float, float, float, float | None]:
    """The smallest and largest edge weight, twice the sum of all weights,
    (inf, 0.0, 0.0) without edges, and the learned radius (None until a full
    heap search records one). Every distance a search computes is at most
    that sum, rounding included. One O(m) pass on first use, over each edge
    from both ends; the graph keeps it."""
    if g._weight_span is None:
        w_min, w_max, bound = INF, 0.0, 0.0
        for row in g.adjacency:
            for _, w in row:
                bound += w
                if w < w_min:
                    w_min = w
                if w > w_max:
                    w_max = w
        object.__setattr__(g, "_weight_span", (w_min, w_max, bound, None))  # a cache; the graph stays immutable
    return g._weight_span


def settles_in_order(g: RoadGraph) -> bool:
    """Whether no search of ``g`` can absorb a weight by rounding.

    A weight of at least one ulp of a distance d gives d + w > d, and the
    ulp only grows with d, so a smallest weight of at least one ulp of the
    distance bound keeps every relaxation strictly above its settled node.
    Every Dijkstra search of ``g`` then pops in non-decreasing
    ``(dist, node)`` order: the order circle growing's shared heap and the
    chain solver's labels rely on.
    """
    w_min, _, bound, _ = _weight_range(g)
    return w_min >= math.ulp(bound)


def fits_bucket_ring(g: RoadGraph) -> bool:
    """Whether full searches of ``g`` drain ``_drain_ring`` instead of a heap.

    True when ``g`` has an edge and no search visits more than 2(n + m)
    buckets of width ``w_min``. Either of two bounds on a search's reach
    shows it: half the distance bound, when that is at most 4(n + m)
    smallest weights (``w_min`` is then far above one ulp of it, so ``g``
    settles in order), or twice the radius ``dijkstra`` records on its
    first full heap search, by the triangle inequality (inf if a node went
    unreached). The radius also needs ``settles_in_order(g)`` and a ring of
    ``w_max / w_min + 2`` slots within 2(n + m), so that one huge weight on
    no shortest path cannot allocate a huge ring.
    """
    w_min, w_max, bound, radius = _weight_range(g)
    cap = 2 * (g.node_count + g.edge_count)
    return g.edge_count > 0 and (bound / w_min <= 2 * cap or (
        radius is not None and 2 * radius / w_min <= cap and w_max / w_min + 2 <= cap
        and settles_in_order(g)))


def require_settles_in_order(g: RoadGraph) -> None:
    """Raise GraphError unless ``settles_in_order(g)``, naming the smallest
    weight and the distance bound it falls below one ulp of."""
    if not settles_in_order(g):
        w_min, _, bound, _ = _weight_range(g)
        raise GraphError(
            f"smallest edge weight {w_min!r} is below one ulp of the distance bound"
            f" {bound!r}; rounding can absorb it, so searches may settle out of order"
        )


def dijkstra(g: RoadGraph, source: int, targets: Iterable[int] | None = None) -> list[float]:
    """Single-source shortest paths: distance per node, inf where unreachable.

    A full search (no ``targets``) drains ``_drain_ring`` when
    ``fits_bucket_ring(g)`` holds and ``settle_stream`` otherwise; both give
    the same row bit for bit. The graph's first full heap search records its
    row's largest entry as the radius that guard reads.

    With ``targets``, the search stops once every target is settled and the
    stream's next distance exceeds the farthest target's. The settled nodes
    are then exactly those at distance at most that one, and their entries
    equal a full search's: the pops so far are a prefix of its pops. Every
    other entry is inf or a tentative distance, never below the true one.
    The whole tie band at the farthest distance is drained, because a
    weight absorbed by rounding (``d + w == d``) can push a tied node after
    the last target is popped. Empty ``targets`` settle only the source.
    """
    n = g.node_count
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range 0..{n - 1}")
    dist = [INF] * n
    if targets is None:
        if fits_bucket_ring(g):
            w_min, w_max, _, _ = _weight_range(g)
            _drain_ring(g.adjacency, source, dist, w_min, w_max)
        else:
            deque(settle_stream(g.adjacency, source, dist), maxlen=0)
            span = _weight_range(g)
            if span[3] is None:
                object.__setattr__(g, "_weight_span", (*span[:3], max(dist)))
        return dist
    stream = settle_stream(g.adjacency, source, dist)
    left = set(targets)
    for t in left:
        if not 0 <= t < n:
            raise GraphError(f"target {t} out of range 0..{n - 1}")
    if not left:
        dist[source] = 0.0
        return dist
    for d, u in stream:
        left.discard(u)
        if not left:
            break
    for tied, _ in stream:
        if tied > d:
            break
    return dist
