from __future__ import annotations

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
from stabledistrict.bench import generate_grid
from stabledistrict.graph import settle_stream

from helpers import cycle_graph, path_graph, random_float_instance, random_sparse_instance

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


def test_from_edges_dense_ids_follow_sorted_originals():
    g = RoadGraph.from_edges([(10, 30, 1.0), (30, 20, 2.0)])
    assert g.original_ids == [10, 20, 30]
    assert g.dense_id(20) == 1
    assert g.has_original_id(30)
    assert not g.has_original_id(99)
