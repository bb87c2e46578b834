from __future__ import annotations

import io
import math
from collections import defaultdict

import pytest

from stabledistrict import (
    GraphError,
    ParseError,
    RoadGraph,
    dijkstra,
    largest_component,
    parse_dimacs,
    parse_tsv,
    write_tsv,
)
from stabledistrict.bench import SplitMix64, derive_seed, generate_grid
from stabledistrict.graph import settle_stream

from helpers import (
    acceptance_grid_instance,
    cycle_graph,
    path_graph,
    random_dimacs_instance,
    random_dimacs_text,
    random_float_instance,
    random_grid_instance,
    random_sparse_instance,
    reference_from_edges,
    reference_parse_dimacs,
    reference_parse_tsv,
)

DIMACS_SMALL = """c three nodes, two arcs
p sp 3 2
a 1 2 5
a 2 3 7
"""


def test_parse_dimacs_small():
    g = parse_dimacs(DIMACS_SMALL)
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.original_ids == [1, 2, 3]
    assert g.adjacency[0] == [(1, 5.0)]
    assert sorted(w for _, w in g.adjacency[1]) == [5.0, 7.0]


def test_parse_dimacs_symmetrizes_reverse_arcs():
    g = parse_dimacs("p sp 2 2\na 1 2 5\na 2 1 5\n")
    assert g.edge_count == 1
    assert g.adjacency[0] == [(1, 5.0)]


def test_parse_dimacs_collapses_parallel_edges_to_min():
    g = parse_dimacs("p sp 2 2\na 1 2 5\na 1 2 3\n")
    assert g.edge_count == 1
    assert g.adjacency[0] == [(1, 3.0)]


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("p sp x 2\na 1 2 5\n", "header", 1),
        ("p sp 3\n", "header", 1),
        ("a 1 2 5\n", "before problem header", 1),
        ("p sp 3 2\na 1 4 5\n", "outside 1..3", 2),
        ("p sp 3 2\na 1 2 -5\n", "nonpositive", 2),
        ("p sp 3 2\na 1 2 0\n", "nonpositive", 2),
        ("p sp 3 1\na 2 2 1\n", "self-loop", 2),
        ("p sp 0 0\n", "positive", 1),
        ("q sp 3 2\n", "unrecognized", 1),
        ("c big\np sp 4 1\na 1 2 5\n", "at most 3", 2),
        ("p sp 99999999999 1\na 1 2 1\n", "declares 99999999999 nodes", 1),
    ],
)
def test_parse_dimacs_errors_name_the_line(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_dimacs(text)
    assert fragment in str(err.value)
    assert f"line {line}" in str(err.value)


def test_parse_dimacs_declared_nodes_without_arcs_are_isolated():
    assert parse_dimacs("p sp 1 0\n").node_count == 1
    g = parse_dimacs("p sp 5 2\na 1 2 1\na 3 4 1\n")
    assert g.node_count == 5 and g.adjacency[4] == []


def test_parse_dimacs_missing_header():
    with pytest.raises(ParseError, match="missing problem header"):
        parse_dimacs("c only comments\n")


def test_parse_dimacs_with_coordinates():
    co = "c coords\nv 1 100 200\nv 2 110 210\nv 3 120 220\n"
    g = parse_dimacs(DIMACS_SMALL, co)
    assert g.coords == [(100.0, 200.0), (110.0, 210.0), (120.0, 220.0)]


def test_parse_dimacs_coordinate_for_unknown_node():
    with pytest.raises(ParseError, match="unknown node 9"):
        parse_dimacs(DIMACS_SMALL, "v 9 0 0\n")


def test_parse_dimacs_incomplete_coordinates():
    with pytest.raises(ParseError, match="node 2 has no coordinate"):
        parse_dimacs(DIMACS_SMALL, "v 1 0 0\n")


@pytest.mark.parametrize("co, fragment, line", [
    ("v 1 nan 0\nv 2 0 0\nv 3 0 0\n", "nonfinite coordinates nan 0", 1),
    ("c coords\nv 1 0 0\nv 2 0 inf\nv 3 0 0\n", "nonfinite coordinates 0 inf", 3),
    ("v 1 0 0\nv 2 0 0\nv 3 -inf -inf\n", "nonfinite coordinates -inf -inf", 3),
    # Ids are placed after the last line, as in parse_tsv, so a nonfinite
    # line after an unknown and a duplicate id is the error reported.
    ("v 1 0 0\nv 9 0 0\nv 1 0 0\nv 2 nan 0\n", "nonfinite coordinates nan 0", 4),
])
def test_parse_dimacs_rejects_nonfinite_coordinates(co, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_dimacs(DIMACS_SMALL, co)
    assert str(err.value) == f"line {line}: {fragment}"
    assert err.value.line == line


def test_parse_tsv_path():
    g = parse_tsv("1\t2\t1.0\n2\t3\t1.0\n")
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.original_ids == [1, 2, 3]


def test_parse_tsv_accepts_spaces_and_comments():
    g = parse_tsv("# a comment\n1 2 1.5\n\n2 3 2.5\n")
    assert g.edge_count == 2
    assert g.adjacency[0] == [(1, 1.5)]


def test_parse_tsv_empty_stream_rejected():
    with pytest.raises(ParseError, match="empty graph"):
        parse_tsv("")


def test_parse_tsv_self_loop_rejected():
    with pytest.raises(ParseError, match="self-loop") as err:
        parse_tsv("1\t1\t2.0\n")
    assert err.value.line == 1


def test_parse_tsv_coordinates_roundtrip():
    text = "0\t1\t1.0\n#node 0 0.5 1.5\n#node 1 2.5 3.5\n"
    g = parse_tsv(text)
    assert g.coords == [(0.5, 1.5), (2.5, 3.5)]
    again = parse_tsv(write_tsv(g))
    assert again == g


def test_parse_tsv_coordinate_errors():
    with pytest.raises(ParseError, match="unknown node 7"):
        parse_tsv("1 2 1.0\n#node 7 0 0\n")
    with pytest.raises(ParseError, match="no coordinate"):
        parse_tsv("1 2 1.0\n#node 1 0 0\n")


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("1 2\n", "malformed edge line", 1),
        ("1 2 1\n1 2 3 4\n", "malformed edge line", 2),
        ("1 x 1\n", "malformed edge fields", 1),
        ("1.5 2 1\n", "malformed edge fields", 1),
        ("1 2 one\n", "malformed edge fields", 1),
        ("1 2 1\n3 3 1\n", "self-loop at node 3", 2),
        ("1 2 0\n", "nonpositive weight 0", 1),
        ("1 2 -1.5\n", "nonpositive weight -1.5", 1),
        ("1 2 nan\n", "nonpositive weight nan", 1),
        ("1 2 inf\n", "nonpositive weight inf", 1),
        ("1 2 -inf\n", "nonpositive weight -inf", 1),
        ("#node 1 0\n1 2 1\n", "malformed coordinate line", 1),
        ("1 2 1\n#node 1 0 y\n", "malformed coordinate fields", 2),
        ("1 2 1\n#node 1 nan 0\n#node 2 0 0\n", "nonfinite coordinates nan 0", 2),
        ("#node 1 0 inf\n1 2 1\n#node 2 0 0\n", "nonfinite coordinates 0 inf", 1),
        ("1 2 1\n#node 1 0 0\n#node 2 -inf NaN\n", "nonfinite coordinates -inf NaN", 3),
        ("1 2 1\n#node 1 0 0\n#node 7 0 0\n", "coordinate for unknown node 7", 3),
        ("1 2 1\n#node 1 0 0\n#node 1 1 1\n#node 2 0 0\n", "duplicate coordinate for node 1", 3),
        ("1 2 1\n#node 2 0 0\n2 3 1\n", "node 1 has no coordinate", None),
        ("# only comments\n\n#node 1 0 0\n", "empty graph: no edges", None),
        # Coordinates are checked after the last line, so a malformed edge
        # line after a duplicate #node line is still the error reported.
        ("1 2 1\n#node 1 0 0\n#node 1 0 0\n2 3 x\n", "malformed edge fields", 4),
        ("1 2 1\n#node 9 0 0\n#node 1 0 0\n#node 1 0 0\n", "coordinate for unknown node 9", 2),
    ],
)
def test_parse_tsv_errors_name_the_line(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_tsv(text)
    assert fragment in str(err.value)
    assert err.value.line == line
    if line is not None:
        assert str(err.value).startswith(f"line {line}: ")


# Faults for the loader fuzz: (message fragment, edit). An edit changes a
# list of lines in place, given the graph's node count n and an rng, and
# returns False where the text has nothing it needs.
def _put(template: str, after_header: bool = False):
    def edit(lines, n, rng):
        lo = 1 + _header(lines) if after_header else 0
        lines.insert(lo + rng.next_below(len(lines) + 1 - lo), template.format(n=n, above=n + 1))
    return edit


def _header(lines) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith("p "))


def _repeat(prefix: str):
    def edit(lines, n, rng):
        found = [line for line in lines if line.startswith(prefix)]
        if not found:
            return False
        lines.insert(rng.next_below(len(lines) + 1), found[rng.next_below(len(found))])
    return edit


def _drop(prefix: str):
    def edit(lines, n, rng):
        found = [i for i, line in enumerate(lines) if line.startswith(prefix)]
        if not found:
            return False
        del lines[found[rng.next_below(len(found))]]
    return edit


def _set_header(template: str):
    def edit(lines, n, rng):
        lines[_header(lines)] = template.format(n=n, most=2 * sum(l.startswith("a ") for l in lines) + 2)
    return edit


def _keep_comments(lines, n, rng):
    lines[:] = [line for line in lines if line.startswith("#")]


TSV_FAULTS = [
    ("malformed edge line", _put("0 1")),
    ("malformed edge line", _put("0 1 2 3")),
    ("malformed edge fields", _put("0 x 1.5")),
    ("malformed edge fields", _put("0 1 1,5")),
    ("self-loop", _put("{n} {n} 1.0")),
    ("nonpositive weight", _put("0 {n} 0")),
    ("nonpositive weight", _put("{n} 0 -2.5")),
    ("nonpositive weight", _put("0 {n} nan")),
    ("nonpositive weight", _put("0 {n} inf")),
    ("malformed coordinate line", _put("#node 0 1.0")),
    ("malformed coordinate fields", _put("#node 0 1.0 north")),
    ("nonfinite coordinates", _put("#node 0 nan 1.0")),
    ("nonfinite coordinates", _put("#node {n} 1.0 -inf")),
    ("coordinate for unknown node", _put("#node {n} 0 0")),
    ("duplicate coordinate", _repeat("#node ")),
    ("has no coordinate", _drop("#node ")),
    ("empty graph", _keep_comments),
]

GR_FAULTS = [
    ("duplicate problem header", _repeat("p ")),
    ("malformed problem header", _set_header("p max {n} 1")),
    ("non-integer counts", _set_header("p sp {n} many")),
    ("node count must be positive", _set_header("p sp 0 0")),
    ("allow at most", _set_header("p sp {most} 1")),
    ("arc line before problem header", lambda lines, n, rng: lines.insert(_header(lines), "a 1 2 1")),
    ("malformed arc line", _put("a 1 2", True)),
    ("malformed arc fields", _put("a 1 2 x", True)),
    ("outside 1..", _put("a 1 {above} 3", True)),
    ("self-loop", _put("a {n} {n} 3", True)),
    ("nonpositive weight", _put("a 1 {n} 0", True)),
    ("nonpositive weight", _put("a {n} 1 nan", True)),
    ("nonpositive weight", _put("a 1 {n} inf", True)),
    ("unrecognized line type", _put("v 1 0 0")),
    ("missing problem header", _drop("p ")),
]

CO_FAULTS = [
    ("malformed coordinate line", _put("v 1 0")),
    ("malformed coordinate line", _put("x 1 0 0")),
    ("malformed coordinate fields", _put("v 1 0 east")),
    ("nonfinite coordinates", _put("v 1 inf 0")),
    ("nonfinite coordinates", _put("v {n} 0 nan")),
    ("coordinate for unknown node", _put("v {above} 0 0")),
    ("duplicate coordinate", _repeat("v ")),
    ("has no coordinate", _drop("v ")),
]

# Lines that change nothing: blanks and comments of each format.
TSV_NOISE = ["", "   ", "\t", "# comment", "#", "#nodes follow", "  # indented comment"]
DIMACS_NOISE = ["", "  ", "c", "c comment line", "\tc indented"]


def _mutate(lines, rng, prefix: str | None, noise):
    """Reverse some edges (``<prefix>u v w`` lines), add parallel copies with
    other weights, move every other line after the header anywhere, and
    sprinkle blank and comment lines. With ``prefix`` None no line is an edge."""
    head = lines[:1] if lines[0].startswith("p ") else []
    body, moved = [], []
    for line in lines[len(head):]:
        tokens = line.split()
        if prefix is None or line.startswith("#") or len(tokens) != 3 + bool(prefix):
            moved.append(line)
            continue
        u, v, w = tokens[-3:]
        if rng.next_below(3) == 0:
            u, v = v, u
        body.append(f"{prefix}{u} {v} {w}")
        if rng.next_below(4) == 0:
            body.append(f"{prefix}{v} {u} {float(w) * (0.5, 2.0, 1.0)[rng.next_below(3)]!r}")
    for line in moved + [noise[rng.next_below(len(noise))] for _ in range(3)]:
        body.insert(rng.next_below(len(body) + 1), line)
    return head + body


def _load(parse, args):
    try:
        g = parse(*args)
    except ValueError as exc:  # ParseError is one
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return g, g._orig_index


def _same_load(parse, reference, lines_per_file, fragment=None, seen=None):
    texts = ["\n".join(lines) + "\n" for lines in lines_per_file]
    got = _load(parse, texts)
    assert got == _load(reference, texts), texts
    assert _load(parse, [io.StringIO(t) for t in texts]) == got
    if fragment is not None and got[0] == "ParseError" and fragment in got[1]:
        seen.add(fragment)


def _fault_cases(parse, reference, files, faults_per_file, n, rng, seen):
    for i, faults in enumerate(faults_per_file):
        for fragment, edit in faults:
            faulty = [list(lines) for lines in files]
            if edit(faulty[i], n, rng) is not False:
                _same_load(parse, reference, faulty, fragment, seen)


def _helper_graphs():
    for source in (random_grid_instance, random_sparse_instance, acceptance_grid_instance, random_float_instance):
        for seed in range(60):
            yield seed, source(seed).graph


def test_parse_tsv_matches_the_two_pass_reference():
    seen: set[str] = set()
    for seed, g in _helper_graphs():
        rng = SplitMix64(derive_seed(seed, g.node_count, 0x75))
        lines = write_tsv(g).splitlines()
        _same_load(parse_tsv, reference_parse_tsv, [lines])
        mutated = _mutate(lines, rng, "", TSV_NOISE)
        _same_load(parse_tsv, reference_parse_tsv, [mutated])
        _fault_cases(parse_tsv, reference_parse_tsv, [mutated], [TSV_FAULTS], g.node_count, rng, seen)
    assert seen == {fragment for fragment, _ in TSV_FAULTS}


def test_from_edges_matches_the_two_pass_reference():
    for seed, g in _helper_graphs():
        rng = SplitMix64(derive_seed(seed, g.node_count, 0x77))
        # Spread ids apart for the indexed path; keep them 0..n-1 for the contiguous one.
        spread = (lambda u: 3 * u - 7) if seed % 2 else (lambda u: u)
        edges = [(spread(u), spread(v), w * (1.0, 1.5)[rng.next_below(2)])
                 for u in range(g.node_count) for v, w in g.adjacency[u]]
        coords = None if g.coords is None else {spread(u): xy for u, xy in enumerate(g.coords)}
        for node_ids in (None, [spread(u) for u in range(g.node_count + 2)]):
            args = (edges, node_ids, coords if node_ids is None else None)
            assert _load(RoadGraph.from_edges, args) == _load(reference_from_edges, args)
        if coords:
            # One coordinate made NaN or infinite, at a node the rng picks.
            bad = dict(coords)
            node = list(bad)[rng.next_below(len(bad))]
            bad[node] = (math.nan, 0.0) if seed % 2 else (bad[node][0], -math.inf)
            args = (edges, None, bad)
            assert _load(RoadGraph.from_edges, args) == _load(reference_from_edges, args)


def _dimacs_texts():
    """The random DIMACS texts, then each helper graph as .gr and .co lines."""
    for seed in range(60):
        text = random_dimacs_text(seed)
        yield seed, int(text.split()[2]), text.splitlines(), None
    for seed, g in _helper_graphs():
        arcs = [f"a {u + 1} {v + 1} {w!r}" for u in range(g.node_count) for v, w in g.adjacency[u] if u < v]
        co = None
        if g.coords is not None:
            co = ["c coordinates", f"p aux sp co {g.node_count}"]
            co += [f"v {u + 1} {x!r} {y!r}" for u, (x, y) in enumerate(g.coords)]
        yield seed, g.node_count, [f"p sp {g.node_count} {len(arcs)}"] + arcs, co


def test_parse_dimacs_matches_the_two_pass_reference():
    seen: set[str] = set()
    for seed, n, gr, co in _dimacs_texts():
        rng = SplitMix64(derive_seed(seed, n, 0x76))
        files = [gr] if co is None else [gr, co]
        _same_load(parse_dimacs, reference_parse_dimacs, files)
        mutated = [_mutate(gr, rng, "a ", DIMACS_NOISE)]
        if co is not None:
            mutated.append(_mutate(co, rng, None, DIMACS_NOISE))
        _same_load(parse_dimacs, reference_parse_dimacs, mutated)
        faults = [GR_FAULTS, CO_FAULTS][:len(mutated)]
        _fault_cases(parse_dimacs, reference_parse_dimacs, mutated, faults, n, rng, seen)
    assert seen == {fragment for fragment, _ in GR_FAULTS + CO_FAULTS}


def test_roundtrip_preserves_graph_exactly():
    g = generate_grid(7, 5, jitter_seed=11)
    assert parse_tsv(write_tsv(g)) == g


def test_roundtrip_from_dimacs():
    g = parse_dimacs(DIMACS_SMALL)
    assert parse_tsv(write_tsv(g)) == g


def test_largest_component_keeps_biggest():
    # P3 on ids 1..3 plus isolated node 4
    g = parse_dimacs("p sp 4 2\na 1 2 1\na 2 3 1\n")
    lc = largest_component(g)
    assert lc.node_count == 3
    assert lc.original_ids == [1, 2, 3]
    assert lc.edge_count == 2


def test_largest_component_identity_when_connected():
    g = path_graph(4)
    assert largest_component(g) is g


def test_largest_component_tie_breaks_on_smallest_original_id():
    # two 4-node paths: {1,2,3,4} and {5,6,7,8}
    text = "p sp 8 6\na 5 6 1\na 6 7 1\na 7 8 1\na 1 2 1\na 2 3 1\na 3 4 1\n"
    lc = largest_component(parse_dimacs(text))
    assert lc.original_ids == [1, 2, 3, 4]


def test_largest_component_empty_graph():
    empty = RoadGraph(0, 0, [], None, [], {})
    with pytest.raises(GraphError, match="empty"):
        largest_component(empty)


def test_dijkstra_path_graph():
    g = path_graph(6)
    assert dijkstra(g, 0) == [0, 1, 2, 3, 4, 5]


def test_dijkstra_cycle():
    g = cycle_graph(4)
    assert dijkstra(g, 0) == [0, 1, 2, 1]


def test_dijkstra_weighted():
    g = parse_dimacs(DIMACS_SMALL)
    assert dijkstra(g, 0) == [0.0, 5.0, 12.0]


def test_dijkstra_unreachable_is_inf():
    g = parse_dimacs("p sp 3 1\na 1 2 1\n")
    assert dijkstra(g, 0)[2] == math.inf


def test_dijkstra_source_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        dijkstra(path_graph(3), 3)
    for targets in ([1, 3], [-1]):
        with pytest.raises(GraphError, match="out of range"):
            dijkstra(path_graph(3), 0, targets)


def test_dijkstra_relaxation_consistency_and_symmetry():
    for seed in range(6):
        g = generate_grid(5 + seed, 4, jitter_seed=seed)
        rows = [dijkstra(g, s) for s in range(g.node_count)]
        for u in range(g.node_count):
            for v, w in g.adjacency[u]:
                assert rows[u][v] <= w
                for s in range(g.node_count):
                    assert abs(rows[s][u] - rows[s][v]) <= w
        for s in range(g.node_count):
            for t in range(g.node_count):
                assert rows[s][t] == rows[t][s]


def test_dijkstra_matches_networkx_full_and_with_targets():
    nx = pytest.importorskip("networkx")
    from stabledistrict.bench import SplitMix64

    graphs = [generate_grid(3 + s % 7, 2 + s % 5, jitter_seed=s) for s in range(20)]
    graphs += [random_sparse_instance(s).graph for s in range(20)]
    graphs += [random_float_instance(s).graph for s in range(20)]
    graphs += [random_dimacs_instance(s).graph for s in range(20)]
    for seed, g in enumerate(graphs):
        ng = nx.Graph()
        ng.add_nodes_from(range(g.node_count))
        ng.add_weighted_edges_from((u, v, w) for u in range(g.node_count) for v, w in g.adjacency[u])
        rng = SplitMix64(seed)
        for source in range(g.node_count):
            full = dijkstra(g, source)
            expected = nx.single_source_dijkstra_path_length(ng, source)
            assert full == [expected[v] for v in range(g.node_count)]
            settles = list(settle_stream(g.adjacency, source, [math.inf] * g.node_count))
            assert sorted(v for _, v in settles) == sorted(expected)
            assert all(d == expected[v] for d, v in settles)
            assert settles == sorted(settles)
            dict_store = defaultdict(lambda: math.inf)
            assert list(settle_stream(g.adjacency, source, dict_store)) == settles
            targets = [rng.next_below(g.node_count) for _ in range(1 + rng.next_below(4))]
            bounded = dijkstra(g, source, targets)
            farthest = max(full[t] for t in targets)
            for v in range(g.node_count):
                if full[v] <= farthest:
                    assert bounded[v] == full[v]
                else:
                    assert bounded[v] >= full[v] > farthest
    assert dijkstra(path_graph(4), 1, []) == [math.inf, 0.0, math.inf, math.inf]


def test_from_edges_rejects_bad_weights():
    with pytest.raises(ValueError, match="nonpositive"):
        RoadGraph.from_edges([(0, 1, 0.0)])
    with pytest.raises(ValueError, match="nonfinite|nonpositive"):
        RoadGraph.from_edges([(0, 1, math.inf)])
    with pytest.raises(ValueError, match="self-loop"):
        RoadGraph.from_edges([(2, 2, 1.0)])


_O = (0.0, 0.0)


@pytest.mark.parametrize("node_ids, coords, kind, message", [
    ([0, 1], None, ValueError, "edge endpoint outside the declared node set"),
    (None, {0: _O, 1: _O}, ParseError, "node 2 has no coordinate"),
    (None, {9: _O, 0: _O, 7: _O, 1: _O, 2: _O}, ParseError, "coordinate for unknown node 7"),
    # Nonfinite first, then unknown, then missing.
    (None, {0: _O, 1: _O, 5: _O}, ParseError, "coordinate for unknown node 5"),
    (None, {5: _O, 1: _O, 0: (math.nan, 0.0)}, ValueError, "nonfinite coordinates (nan, 0.0) for node 0"),
])
def test_from_edges_rejects_bad_nodes_and_coordinates(node_ids, coords, kind, message):
    with pytest.raises(ValueError) as err:
        RoadGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], node_ids, coords)
    assert type(err.value) is kind
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_from_edges_rejects_nonfinite_coordinates(bad):
    with pytest.raises(ValueError, match=r"nonfinite coordinates .* for node 1$"):
        RoadGraph.from_edges([(0, 1, 1.0)], coords={0: (0.0, 0.0), 1: bad})


def test_from_edges_dense_ids_follow_sorted_originals():
    g = RoadGraph.from_edges([(10, 30, 1.0), (30, 20, 2.0)])
    assert g.original_ids == [10, 20, 30]
    assert g.dense_id(20) == 1
    assert g.has_original_id(30)
    assert not g.has_original_id(99)
