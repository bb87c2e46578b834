"""The settle-order guard and the bucket ring of full searches.

Where no weight can be absorbed by rounding, a heap search pops in
``(dist, node)`` order: its pops are ``rank_rows`` of its row, the order
circle growing and the chain solver rely on. Where one can, the pops may
leave that order, and circle growing and the chain solver refuse the graph;
the table solvers rank their rows with ``rank_rows`` on every graph. Full
searches on graphs whose weight spread fits ``graph.fits_bucket_ring``
drain a bucket ring instead of the heap; their rows equal the heap's bit
for bit.
"""

from __future__ import annotations

from array import array
from collections import Counter

import pytest

from stabledistrict import (
    GraphError,
    RoadGraph,
    build_preferences,
    dijkstra,
    mutual_closest_run,
    solve,
)
from stabledistrict import gale_shapley, graph
from stabledistrict.bench import generate_grid
from stabledistrict.gale_shapley import gs_centers_run, gs_nodes_run
from stabledistrict.graph import INF, fits_bucket_ring, require_settles_in_order, settle_stream, settles_in_order
from stabledistrict.model import rank_rows

from helpers import (
    dropped_edge_grid,
    helper_corpus,
    path_graph,
    random_absorbing_instance,
    random_dimacs_instance,
    random_float_instance,
    random_grid_instance,
    reference_mutual_closest,
)

ABSORBING_SEEDS = range(300)


def stable_sort(row) -> list[int]:
    return sorted(range(len(row)), key=lambda v: (row[v], v))


def heap_search(g: RoadGraph, source: int) -> tuple[bytes, list[int]]:
    """A full ``settle_stream`` search: its row's bytes and its pop order."""
    dist = [INF] * g.node_count
    order = [u for _, u in settle_stream(g.adjacency, source, dist)]
    return array("d", dist).tobytes(), order


def full_searches(monkeypatch, g: RoadGraph, sources) -> tuple[list, int]:
    """``dijkstra``'s full search from each source, as its row's bytes, and
    how many of them went through ``graph.settle_stream``."""
    streams = []

    def spy(adjacency, source, dist):
        streams.append(source)
        return settle_stream(adjacency, source, dist)

    searches = []
    with monkeypatch.context() as patch:
        patch.setattr(graph, "settle_stream", spy)
        for s in sources:
            searches.append(array("d", dijkstra(g, s)).tobytes())
    return searches, len(streams)


def heap_rows(g: RoadGraph, sources) -> list[bytes]:
    return [heap_search(g, s)[0] for s in sources]


def chorded_path(chord: float, extra=()) -> RoadGraph:
    """A 20-node path of unit weights closed into a cycle by one ``chord``,
    which lies on no shortest path, plus the ``extra`` edges."""
    return RoadGraph.from_edges([(i, i + 1, 1.0) for i in range(19)] + [(0, 19, chord), *extra])


def test_ring_rows_equal_the_heap_bit_for_bit(monkeypatch):
    taken: Counter = Counter()
    for name, seed, inst in helper_corpus():
        g = inst.graph
        by_weight_sum = fits_bucket_ring(g)
        searches, streamed = full_searches(monkeypatch, g, range(g.node_count))
        by_radius = not by_weight_sum and fits_bucket_ring(g)
        assert streamed == (0 if by_weight_sum else 1 if by_radius else g.node_count), (name, seed)
        assert searches == heap_rows(g, range(g.node_count)), (name, seed)
        taken[by_weight_sum, by_radius] += 1
    # The 19 graphs that pass by their radius are all random_dimacs_instance's.
    assert taken == {(True, False): 188, (False, True): 19, (False, False): 93}
    for side in (32, 64):
        g = generate_grid(side, side, jitter_seed=7)
        assert fits_bucket_ring(g)
        sources = range(0, g.node_count, 97)
        searches, streamed = full_searches(monkeypatch, g, sources)
        assert streamed == 0
        assert searches == heap_rows(g, sources)


class CountingAdjacency(list):
    """An adjacency list that counts how often each node's arcs are read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads: Counter = Counter()

    def __getitem__(self, u):
        self.reads[u] += 1
        return super().__getitem__(u)


def test_a_ring_search_reads_each_reached_node_once():
    # The ring holds bare node ids, and a node popped again at a distance
    # its arcs were already relaxed at is skipped, so exact weights (dyadic
    # grids, DIMACS integers) read every reached node's arcs exactly once.
    searched: Counter = Counter()
    for make in (random_grid_instance, random_dimacs_instance):
        for seed in range(60):
            g = make(seed).graph
            dijkstra(g, 0)  # a DIMACS graph may pass only by the radius this records
            if not fits_bucket_ring(g):
                continue
            w_min, w_max, _, _ = graph._weight_range(g)
            for source in range(g.node_count):
                adjacency = CountingAdjacency(g.adjacency)
                dist = [INF] * g.node_count
                graph._drain_ring(adjacency, source, dist, w_min, w_max)
                assert adjacency.reads == Counter(range(g.node_count)), (make.__name__, seed, source)
                assert array("d", dist).tobytes() == heap_search(g, source)[0]
            searched[make.__name__] += 1
    assert searched == {"random_grid_instance": 60, "random_dimacs_instance": 26}


def test_a_learned_radius_sends_road_graphs_to_the_ring_after_their_first_search(monkeypatch):
    road = dropped_edge_grid(50, 7)
    graphs = [
        (road, range(0, road.node_count, 29), 1),  # twice its weight sum is 63 (n + m) w_min
        (chorded_path(70.0), range(20), 1),  # 178 > 4(n + m) w_min, radius 19, ring of 72 slots
        (path_graph(5, [1.0, 2.0, 1.0, 3.0]), range(5), 0),  # within the weight-sum bound
        (chorded_path(1.0, [(20, 21, 1.0)]), range(22), 0),  # disconnected, within it too
    ]
    for g, sources, streams in graphs:
        searches, streamed = full_searches(monkeypatch, g, sources)
        assert streamed == streams and fits_bucket_ring(g)
        assert searches == heap_rows(g, sources)
    # Below about 2**25 nodes and edges the ring's size cap implies the
    # settle order; the radius must still never override that guard.
    with monkeypatch.context() as patch:
        patch.setattr(graph, "settles_in_order", lambda g: False)
        g = chorded_path(70.0)
        assert full_searches(monkeypatch, g, range(20))[1] == 20 and not fits_bucket_ring(g)


def test_the_ring_accepts_absorbing_seeds_only_where_they_settle_in_order(monkeypatch):
    ring = 0
    for seed in ABSORBING_SEEDS:
        g = random_absorbing_instance(seed).graph
        by_weight_sum = fits_bucket_ring(g)
        in_order = settles_in_order(g)
        searches, streamed = full_searches(monkeypatch, g, range(g.node_count))
        fits = fits_bucket_ring(g)
        assert not fits or in_order, seed
        assert streamed == (0 if by_weight_sum else 1 if fits else g.node_count), seed
        ring += fits
        assert searches == heap_rows(g, range(g.node_count)), seed
    assert 0 < ring < len(ABSORBING_SEEDS) // 10


def test_graphs_outside_the_ring_guard_take_the_heap(monkeypatch):
    floats = [random_float_instance(seed).graph for seed in range(60)]
    graphs = [RoadGraph.from_edges([], node_ids=[0]), path_graph(3, [1.0, 1e6])]
    graphs.append(chorded_path(1e6))  # radius 19, but a ring of 1e6 + 2 slots
    graphs.append(chorded_path(70.0, [(20, 21, 1.0)]))  # disconnected: its radius is inf
    graphs += [g for g in floats if not fits_bucket_ring(g)]
    assert len(graphs) > 50
    for g in graphs:
        assert not fits_bucket_ring(g)
        searches, streamed = full_searches(monkeypatch, g, range(g.node_count))
        assert streamed == g.node_count
        assert searches == heap_rows(g, range(g.node_count))
    assert dijkstra(graphs[0], 0) == [0.0]


def test_the_witness_pops_out_of_order_and_fails_the_guard():
    g = RoadGraph.from_edges([(3, 2, 1.0), (2, 0, 1e-17), (3, 1, 1.0)])
    row, pops = heap_search(g, 3)
    assert pops == [3, 1, 2, 0]  # 1 + 1e-17 == 1: node 0 is pushed tied after node 1 pops
    assert array("d", dijkstra(g, 3)).tobytes() == row
    assert [list(r) for r in rank_rows([array("d", row)])] == [[3, 0, 1, 2]]
    assert not settles_in_order(g)
    with pytest.raises(GraphError, match=r"smallest edge weight 1e-17 .* bound 4\.0"):
        require_settles_in_order(g)


def test_a_graph_without_edges_settles_in_order():
    assert settles_in_order(RoadGraph.from_edges([], node_ids=[0]))


def test_in_order_pops_are_the_ranked_rows():
    graphs = [inst.graph for _, _, inst in helper_corpus()]
    assert all(map(settles_in_order, graphs))
    absorbing = [random_absorbing_instance(seed).graph for seed in ABSORBING_SEEDS]
    in_order = [g for g in absorbing if settles_in_order(g)]
    assert len(in_order) == 12
    graphs += in_order
    for g in graphs:
        for s in range(g.node_count):
            row, pops = heap_search(g, s)
            assert pops == list(rank_rows([array("d", row)])[0]), s


def test_absorbing_weights_take_the_sorting_fallback():
    fallbacks = 0
    for seed in ABSORBING_SEEDS:
        inst = random_absorbing_instance(seed)
        in_order = settles_in_order(inst.graph)
        fallbacks += not in_order
        prefs = build_preferences(inst)
        assert [list(r) for r in prefs.center_prefs] == [stable_sort(row) for row in prefs.dist], seed
        run = mutual_closest_run(inst)
        match, dist, _ = reference_mutual_closest(inst)
        for a in (gs_centers_run(inst, prefs).assignment, gs_nodes_run(inst, prefs).assignment, run.assignment):
            assert (a.match, a.dist) == (match, dist), seed
        for algo in ("circle", "nnc"):
            if in_order:
                assert solve(inst, algo)[0].match == match, seed
            else:
                with pytest.raises(GraphError, match="smallest edge weight 1e-17"):
                    solve(inst, algo)
    assert fallbacks > len(ABSORBING_SEEDS) // 2


def test_the_searches_run_on_the_first_read(monkeypatch):
    searched = []
    inner = gale_shapley.compute_center_distances
    monkeypatch.setattr(gale_shapley, "compute_center_distances", lambda inst: searched.append(inst) or inner(inst))
    inst = random_grid_instance(5)
    prefs = build_preferences(inst)
    assert searched == []  # building the table searches nothing
    gs_nodes_run(inst, prefs)
    assert len(searched) == 1
    node_side_first = [list(r) for r in prefs.center_prefs]  # read after dist: no search
    assert len(searched) == 1
    prefs = build_preferences(inst)
    gs_centers_run(inst, prefs)
    assert len(searched) == 2
    assert [list(r) for r in prefs.center_prefs] == node_side_first
    assert "node_prefs" not in vars(prefs)
    prefs.node_prefs  # the table is searched once, whichever side reads it first
    assert len(searched) == 2
