"""Shared test utilities: seeded instance generators and independent checks.

Everything here is deliberately simple and separate from the library's
own machinery so that tests cross-check rather than echo the
implementation.
"""

from __future__ import annotations

import math
from array import array
from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
from typing import IO

from stabledistrict import (
    Assignment,
    Instance,
    ParseError,
    RoadGraph,
    Score,
    build_preferences,
    compute_center_distances,
    equal_quotas,
    generate_grid,
    largest_component,
    mutual_closest_run,
    parse_dimacs,
    solve,
)
from stabledistrict.bench import SplitMix64, derive_seed, sample_centers
from stabledistrict.circle import CircleRun
from stabledistrict.gale_shapley import GsRun, gs_centers_run, gs_nodes_run
from stabledistrict.graph import _lines, require_settles_in_order, settle_stream
from stabledistrict.nnc import DnnOracle, Side
from stabledistrict.render import BOUNDARY_COLOR, district_color


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


def random_float_instance(seed: int, max_n: int = 40) -> Instance:
    """Random connected graph with non-dyadic float weights from 1e-9 to 10.

    Each weight is a mantissa in [1, 10) with a denominator of 1_000_003,
    scaled by 10**-e for e in {0, 1, 2, 3, 9}, so sums round.
    """
    rng = SplitMix64(derive_seed(seed, 0xF1))

    def weight() -> float:
        mantissa = 1.0 + rng.next_below(9_000_000) / 1_000_003.0
        return mantissa * 10.0 ** -(0, 1, 2, 3, 9)[rng.next_below(5)]

    n = 2 + rng.next_below(max_n - 1)
    edges = [(rng.next_below(v), v, weight()) for v in range(1, n)]
    for _ in range(rng.next_below(n + 1)):
        u, v = rng.next_below(n), rng.next_below(n)
        if u != v:
            edges.append((u, v, weight()))
    g = RoadGraph.from_edges(edges, node_ids=range(n))
    k = 1 + rng.next_below(min(n, 8))
    centers = sample_centers(n, k, derive_seed(seed, 0xF2))
    quotas = random_quotas(n, k, rng) if seed % 2 else equal_quotas(n, k)
    return Instance(g, centers, quotas)


def random_absorbing_instance(seed: int, max_n: int = 32) -> Instance:
    """Random connected graph on which rounding can absorb a weight.

    Weights are integers 1-8, but about a quarter are 1e-17, below half an
    ulp of every distance of 1 or more, so ``d + w == d`` on most of them
    and a search can pop a tied node with a smaller id late. Equal quotas.
    """
    rng = SplitMix64(derive_seed(seed, 0xAB))

    def weight() -> float:
        return 1e-17 if rng.next_below(4) == 0 else float(1 + rng.next_below(8))

    n = 3 + rng.next_below(max_n - 2)
    edges = [(rng.next_below(v), v, weight()) for v in range(1, n)]
    for _ in range(rng.next_below(n + 1)):
        u, v = rng.next_below(n), rng.next_below(n)
        if u != v:
            edges.append((u, v, weight()))
    g = RoadGraph.from_edges(edges, node_ids=range(n))
    k = 1 + rng.next_below(min(n, 8))
    return Instance(g, sample_centers(n, k, derive_seed(seed, 0xAC)), equal_quotas(n, k))


def helper_corpus(seeds: range = range(60)):
    """(generator name, seed, instance) over every seeded instance generator
    of this module except ``random_absorbing_instance``."""
    for make in (random_grid_instance, random_sparse_instance, random_float_instance,
                 random_dimacs_instance, acceptance_grid_instance):
        for seed in seeds:
            yield make.__name__, seed, make(seed)


def zipf_quotas(n: int, k: int) -> list[int]:
    """q_i = max(1, floor(n / ((i+1) * H_k))); the remainder goes to center 0."""
    h = sum(1.0 / (i + 1) for i in range(k))
    quotas = [max(1, int(n / ((i + 1) * h))) for i in range(k)]
    quotas[0] += n - sum(quotas)
    assert quotas[0] >= 1, (n, k)
    return quotas


def _random_dimacs(seed: int, max_n: int) -> tuple[str, SplitMix64]:
    rng = SplitMix64(derive_seed(seed, 0xF3))
    n = 2 + rng.next_below(max_n - 1)
    pairs = [(rng.next_below(v), v) for v in range(1, n)]
    for _ in range(rng.next_below(n + 1)):
        u, v = rng.next_below(n), rng.next_below(n)
        if u != v:
            pairs.append((u, v))
    arcs = []
    for u, v in pairs:
        w = 1 + rng.next_below(100)
        arcs += [f"a {u + 1} {v + 1} {w}", f"a {v + 1} {u + 1} {w}"]
    for i in range(len(arcs) - 1, 0, -1):
        j = rng.next_below(i + 1)
        arcs[i], arcs[j] = arcs[j], arcs[i]
    return "\n".join([f"p sp {n} {len(arcs)}"] + arcs) + "\n", rng


def random_dimacs_text(seed: int, max_n: int = 40) -> str:
    """The DIMACS text that ``random_dimacs_instance(seed)`` reads."""
    return _random_dimacs(seed, max_n)[0]


def random_dimacs_instance(seed: int, max_n: int = 40) -> Instance:
    """Random connected graph read from DIMACS text with integer weights 1-100.

    Every edge is written as two arcs, one per direction, in shuffled order,
    so the graph goes through ``parse_dimacs``' symmetrizing. The few weight
    values make exact distance ties common; quotas follow a Zipf law.
    """
    text, rng = _random_dimacs(seed, max_n)
    g = parse_dimacs(text)
    n = g.node_count
    # At k <= n/2 the Zipf quotas fit n for every n here (center 0 keeps >= 1).
    k = 1 + rng.next_below(min(max(1, n // 2), 8))
    centers = sample_centers(n, k, derive_seed(seed, 0xF4))
    return Instance(g, centers, zipf_quotas(n, k))


def dropped_edge_grid(side: int, seed: int, drop_pct: int = 12, weights=range(1, 101)) -> RoadGraph:
    """The largest component of a side x side grid whose edges carry
    ``weights`` drawn uniformly (by default the integers 1-100), each edge
    dropped with probability drop_pct/100: by default the shape and weights
    of a DIMACS road file."""
    rng = SplitMix64(derive_seed(seed, 0xD5))
    edges = []
    for y in range(side):
        for x in range(side):
            u = y * side + x
            for v, inside in ((u + 1, x + 1 < side), (u + side, y + 1 < side)):
                if inside and rng.next_below(100) >= drop_pct:
                    edges.append((u, v, float(weights[rng.next_below(len(weights))])))
    return largest_component(RoadGraph.from_edges(edges, node_ids=range(side * side)))


def reference_from_edges(edges, node_ids=None, coords=None) -> RoadGraph:
    """``RoadGraph.from_edges`` as two passes: validate and dedupe the (u, v, w)
    triples while collecting the endpoints, then sort and index the node
    universe; the parsers' one-pass build must match it too."""
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
    dense_coords = None
    if coords is not None:
        # The parsers' order: nonfinite, then the smallest unknown id, then
        # the smallest id without a coordinate.
        for orig, (x, y) in coords.items():
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"nonfinite coordinates ({x!r}, {y!r}) for node {orig}")
        unknown = coords.keys() - universe
        if unknown:
            raise ParseError(f"coordinate for unknown node {min(unknown)}")
        missing = universe - coords.keys()
        if missing:
            raise ParseError(f"node {min(missing)} has no coordinate")
        dense_coords = [coords[orig] for orig in ids]
    return RoadGraph(
        node_count=len(ids),
        edge_count=len(best),
        adjacency=adjacency,
        coords=dense_coords,
        original_ids=ids,
        _orig_index=index,
    )


def reference_parse_dimacs(gr_stream, co_stream=None) -> RoadGraph:
    """``parse_dimacs`` as two passes: collect the validated arcs as a list
    of triples, then normalize them; the one-pass loader must match it."""
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
            header_line = line_no
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
    if co_stream is None and n_declared > 2 * len(edges) + 1:
        raise ParseError(f"problem header declares {n_declared} nodes;"
                         f" {len(edges)} arc line(s) allow at most {2 * len(edges) + 1}", header_line)
    coords = None
    if co_stream is not None:
        coord_lines = []
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
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"nonfinite coordinates {tokens[2]} {tokens[3]}", line_no)
            coord_lines.append((line_no, node, x, y))
        # Ids are placed once the whole file is read, in line order.
        coords = {}
        for line_no, node, x, y in coord_lines:
            if not 1 <= node <= n_declared:
                raise ParseError(f"coordinate for unknown node {node}", line_no)
            if node in coords:
                raise ParseError(f"duplicate coordinate for node {node}", line_no)
            coords[node] = (x, y)
        if len(coords) < n_declared:
            raise ParseError(f"node {next(v for v in count(1) if v not in coords)} has no coordinate")
    return reference_from_edges(edges, node_ids=range(1, n_declared + 1), coords=coords)


def reference_parse_tsv(stream) -> RoadGraph:
    """``parse_tsv`` as two passes: collect the validated edges and the
    coordinate lines, check the coordinates against the endpoint set, then
    normalize; the one-pass loader must match it."""
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
                node, x, y = int(tokens[1]), float(tokens[2]), float(tokens[3])
            except ValueError:
                raise ParseError("malformed coordinate fields", line_no) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"nonfinite coordinates {tokens[2]} {tokens[3]}", line_no)
            coord_lines.append((line_no, node, x, y))
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
    return reference_from_edges(edges, coords=coords)


N_EQUIVALENCE_CASES = 200


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


def all_solver_outputs(inst: Instance) -> dict[str, Assignment]:
    """The five solvers' assignments, keyed by their CLI names."""
    prefs = build_preferences(inst, memory_cap_bytes=None)
    return {
        "gs-centers": gs_centers_run(inst, prefs).assignment,
        "gs-nodes": gs_nodes_run(inst, prefs).assignment,
        "circle": solve(inst, "circle")[0],
        "nnc": solve(inst, "nnc")[0],
        "mutual": mutual_closest_run(inst).assignment,
    }


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


def reference_mutual_closest(inst: Instance):
    """The mutual-closest-pair loop over one heap of all n*k (dist, node,
    center) triples; returns (match, dist, order)."""
    n = inst.graph.node_count
    k = inst.k
    table = compute_center_distances(inst)
    heap = [(table[c][u], u, c) for c in range(k) for u in range(n)]
    heapify(heap)
    remaining = list(inst.quotas)
    match = [-1] * n
    dist = [0.0] * n
    order = []
    while len(order) < n:
        d, u, c = heappop(heap)
        if match[u] >= 0 or remaining[c] == 0:
            continue
        match[u] = c
        dist[u] = d
        order.append((u, c))
        remaining[c] -= 1
    return match, dist, order


def reference_node_prefs(dist) -> list[array]:
    """Every node's k center indices, best first, ranked up front from the
    k x n table. A stable sort over the index range breaks distance ties by
    center index, which is the Score order with the first component fixed."""
    centers = range(len(dist))
    return [array("i", sorted(centers, key=column.__getitem__)) for column in zip(*dist)]


def reference_gs_nodes_run(inst: Instance, dist) -> GsRun:
    """Nodes propose down eagerly ranked lists, from node 0 on, and a full
    center bumps its worst member by the Score tuple order; gs_nodes_run
    must return the same assignment and proposal count."""
    n = inst.graph.node_count
    node_prefs = reference_node_prefs(dist)
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


def reference_circle_growing(inst: Instance, trace: IO[str] | None = None) -> CircleRun:
    """Circle growing as a k-way merge of one ``settle_stream`` per center,
    keyed by the (dist, node, center) Score triple. A center's stream is
    closed unresumed when its quota fills, so its last member is never
    relaxed; ``pushed_total`` counts the nodes each stream reached."""
    require_settles_in_order(inst.graph)
    n = inst.graph.node_count
    remaining = list(inst.quotas)
    balls = [[math.inf] * n for _ in inst.centers]
    streams = [settle_stream(inst.graph.adjacency, s, ball) for s, ball in zip(inst.centers, balls)]
    heap = [next(stream) + (c,) for c, stream in enumerate(streams)]
    heapify(heap)
    match = [-1] * n
    dist = [0.0] * n
    matched = settled_total = pushed_total = 0
    while heap and matched < n:
        d, u, c = heap[0]
        settled_total += 1
        if trace is not None:
            trace.write(f"settle\t{c}\t{u}\t{d!r}\n")
        if match[u] < 0:
            match[u] = c
            dist[u] = d
            matched += 1
            remaining[c] -= 1
            if trace is not None:
                trace.write(f"match\t{c}\t{u}\t{d!r}\n")
            if remaining[c] == 0:
                if trace is not None:
                    trace.write(f"halt\t{c}\t{u}\t{d!r}\n")
                streams[c].close()
        step = next(streams[c], None)
        if step is None:
            heappop(heap)
            pushed_total += n - balls[c].count(math.inf)
        else:
            heapreplace(heap, step + (c,))
    assert matched == n
    return CircleRun(Assignment(match=match, dist=dist), settled_total, pushed_total)


def mutual_match_order(a: Assignment) -> list[tuple[int, int]]:
    """The (node, center) pairs in the order the mutual-closest solver
    matches them: it matches in ascending Score, so the order is the
    assignment's ``(dist, node, center)`` triples, sorted."""
    return [(u, c) for _, u, c in sorted(zip(a.dist, range(len(a.match)), a.match))]


def check_mutual_closest_steps(inst: Instance, order: list[tuple[int, int]]) -> None:
    """Replay an ``order`` of (node, center) matches (``mutual_match_order``)
    against a full table, asserting at each step, by an exhaustive scan of
    both sides' active partners, that the pair is mutual-closest."""
    table = compute_center_distances(inst)
    remaining = list(inst.quotas)
    match = [-1] * inst.graph.node_count
    for u, c in order:
        d = table[c][u]
        best_center = min((row[u], c2) for c2, row in enumerate(table) if remaining[c2] > 0)
        assert best_center == (d, c), f"node {u}: nearest open center is {best_center}, selected ({d}, {c})"
        best_node = min((table[c][v], v) for v in range(len(match)) if match[v] < 0)
        assert best_node == (d, u), f"center {c}: nearest unmatched node is {best_node}, selected ({d}, {u})"
        match[u] = c
        remaining[c] -= 1


def reference_render_svg(inst: Instance, a: Assignment) -> str:
    """The SVG map drawn edge by edge, each endpoint scaled and formatted
    where it is used, 1000 units wide with a 2% margin, 2-unit edges and
    6-unit markers; render_svg must match it byte for byte."""
    g = inst.graph
    width, edge_width, marker_radius = 1000.0, 2.0, 6.0
    xs = [p[0] for p in g.coords]
    ys = [p[1] for p in g.coords]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max_x - min_x or 1.0
    span_y = max_y - min_y or 1.0
    margin = width * 0.02
    scale = (width - 2.0 * margin) / span_x
    height = span_y * scale + 2.0 * margin

    def fmt(value: float) -> str:
        return f"{value:.2f}"

    def sx(x: float) -> float:
        return margin + (x - min_x) * scale

    def sy(y: float) -> float:
        return margin + (max_y - y) * scale

    segments: dict[int, list[str]] = {}
    boundary: list[str] = []
    for u in range(g.node_count):
        x1, y1 = g.coords[u]
        for v, _ in g.adjacency[u]:
            if v < u:
                continue
            x2, y2 = g.coords[v]
            d = f"M{fmt(sx(x1))} {fmt(sy(y1))} L{fmt(sx(x2))} {fmt(sy(y2))}"
            if a.match[u] == a.match[v]:
                segments.setdefault(a.match[u], []).append(d)
            else:
                boundary.append(d)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {fmt(width)} {fmt(height)}"'
        f' width="{fmt(width)}" height="{fmt(height)}">',
        f'<g fill="none" stroke-width="{fmt(edge_width)}" stroke-linecap="round">',
    ]
    for c in range(inst.k):
        if c in segments:
            lines.append(f'<path stroke="{district_color(c)}" d="{" ".join(segments[c])}"/>')
    if boundary:
        lines.append(f'<path stroke="{BOUNDARY_COLOR}" d="{" ".join(boundary)}"/>')
    lines.append("</g>")
    lines.append('<g stroke="#000000" stroke-width="1.00">')
    for c, center_node in enumerate(inst.centers):
        x, y = g.coords[center_node]
        lines.append(
            f'<circle cx="{fmt(sx(x))}" cy="{fmt(sy(y))}" r="{fmt(marker_radius)}"'
            f' fill="{district_color(c)}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


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

    def nearest(self, q: int) -> Score | None:
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
        return Score(found_d, q, found_ci)

    def remove(self, x: int) -> None:
        if self._active[x]:
            self._active[x] = False
            self._alive -= 1


def truncated_dijkstra_oracle(inst: Instance, side: Side) -> DnnOracle:
    """Reference DnnOracle for the fast one: every query runs a fresh
    shortest-path search from the query node, stopped at the first active
    center, with no state shared between queries."""
    if side == "centers":
        return _TruncatedCenterOracle(inst)
    raise ValueError(f"unknown side {side!r}")
