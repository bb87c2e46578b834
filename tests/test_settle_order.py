"""The settle-order guard and the ranked rows ``dijkstra`` hands back.

A full search's ``order`` is the stable sort of its distance row on every
graph, and gs-centers and the mutual reference read it as their ranked
rows. Where no weight can be absorbed by rounding, a heap search's pop
order is that sort and is taken as is. Where one can, the pops may leave
that order, so ``dijkstra`` sorts the row, and circle growing and the
chain solver refuse the graph. Full searches on graphs whose weight spread
fits ``graph.fits_bucket_ring`` drain a bucket ring instead of the heap;
their rows equal the heap's bit for bit, and so do their orders wherever
the graph settles in order.
"""

from __future__ import annotations

from array import array

import pytest

from stabledistrict import (
    GraphError,
    RoadGraph,
    build_preferences,
    compute_center_distances,
    dijkstra,
    mutual_closest_run,
    solve,
)
from stabledistrict import gale_shapley, graph, nnc
from stabledistrict.bench import generate_grid
from stabledistrict.gale_shapley import gs_centers_run, gs_nodes_run
from stabledistrict.graph import INF, fits_bucket_ring, require_settles_in_order, settle_stream, settles_in_order

from helpers import (
    helper_corpus,
    path_graph,
    random_absorbing_instance,
    random_float_instance,
    random_grid_instance,
    reference_mutual_closest,
)

ABSORBING_SEEDS = range(300)


def stable_sort(row) -> list[int]:
    return sorted(range(len(row)), key=lambda v: (row[v], v))


class SearchSpy:
    """Wraps a module's ``compute_center_distances``; records, per call,
    the ranked rows it was asked for (None when it was not) and its rows."""

    def __init__(self, monkeypatch, module):
        self.calls: list[tuple[list | None, list]] = []
        inner = module.compute_center_distances

        def spy(inst, orders=None):
            rows = inner(inst, orders)
            self.calls.append((orders, [list(row) for row in rows]))
            return rows

        monkeypatch.setattr(module, "compute_center_distances", spy)


def heap_search(g: RoadGraph, source: int) -> tuple[bytes, list[int]]:
    """A full ``settle_stream`` search: its row's bytes and its pop order."""
    dist = [INF] * g.node_count
    order = [u for _, u in settle_stream(g.adjacency, source, dist)]
    return array("d", dist).tobytes(), order


def full_searches(monkeypatch, g: RoadGraph, sources) -> tuple[list, int]:
    """``dijkstra``'s full search from each source, as ``heap_search``'s
    pairs, and how many of them went through ``graph.settle_stream``."""
    streams = []

    def spy(adjacency, source, dist):
        streams.append(source)
        return settle_stream(adjacency, source, dist)

    searches = []
    with monkeypatch.context() as patch:
        patch.setattr(graph, "settle_stream", spy)
        for s in sources:
            order = array("i")
            row = dijkstra(g, s, order=order)
            searches.append((array("d", row).tobytes(), list(order)))
    return searches, len(streams)


def test_ring_rows_and_orders_equal_the_heap_bit_for_bit(monkeypatch):
    graphs = [inst.graph for _, _, inst in helper_corpus() if fits_bucket_ring(inst.graph)]
    assert len(graphs) == 188
    for g in graphs:
        searches, streamed = full_searches(monkeypatch, g, range(g.node_count))
        assert streamed == 0
        assert searches == [heap_search(g, s) for s in range(g.node_count)]
    for side in (32, 64):
        g = generate_grid(side, side, jitter_seed=7)
        assert fits_bucket_ring(g)
        sources = range(0, g.node_count, 97)
        searches, streamed = full_searches(monkeypatch, g, sources)
        assert streamed == 0
        assert searches == [heap_search(g, s) for s in sources]


def test_the_ring_accepts_absorbing_seeds_only_where_they_settle_in_order(monkeypatch):
    ring = 0
    for seed in ABSORBING_SEEDS:
        g = random_absorbing_instance(seed).graph
        fits = fits_bucket_ring(g)
        assert not fits or settles_in_order(g), seed
        ring += fits
        in_order = settles_in_order(g)
        searches, streamed = full_searches(monkeypatch, g, range(g.node_count))
        assert streamed == (0 if fits else g.node_count), seed
        for s, (row, order) in enumerate(searches):
            heap_row, pops = heap_search(g, s)
            assert row == heap_row, seed
            assert order == (pops if in_order else stable_sort(array("d", row))), seed
    assert 0 < ring < len(ABSORBING_SEEDS) // 10


def test_graphs_outside_the_ring_guard_take_the_heap(monkeypatch):
    floats = [random_float_instance(seed).graph for seed in range(60)]
    graphs = [RoadGraph.from_edges([], node_ids=[0]), path_graph(3, [1.0, 1e6])]
    graphs += [g for g in floats if not fits_bucket_ring(g)]
    assert len(graphs) > 50
    for g in graphs:
        assert not fits_bucket_ring(g)
        searches, streamed = full_searches(monkeypatch, g, range(g.node_count))
        assert streamed == g.node_count
        assert searches == [heap_search(g, s) for s in range(g.node_count)]
    assert dijkstra(graphs[0], 0) == [0.0]


def test_the_witness_pops_out_of_order_and_fails_the_guard():
    g = RoadGraph.from_edges([(3, 2, 1.0), (2, 0, 1e-17), (3, 1, 1.0)])
    row, pops = heap_search(g, 3)
    assert pops == [3, 1, 2, 0]  # 1 + 1e-17 == 1: node 0 is pushed tied after node 1 pops
    order: list[int] = []
    assert array("d", dijkstra(g, 3, order=order)).tobytes() == row
    assert order == stable_sort(array("d", row)) == [3, 0, 1, 2]
    assert not settles_in_order(g)
    with pytest.raises(GraphError, match=r"smallest edge weight 1e-17 .* bound 4\.0"):
        require_settles_in_order(g)


def test_a_graph_without_edges_settles_in_order():
    assert settles_in_order(RoadGraph.from_edges([], node_ids=[0]))


def test_pop_orders_are_the_sorted_rows_on_the_helper_corpus():
    for name, seed, inst in helper_corpus():
        assert settles_in_order(inst.graph), (name, seed)
        orders: list = []
        rows = compute_center_distances(inst, orders)
        assert [list(o) for o in orders] == [stable_sort(row) for row in rows], (name, seed)


def test_gs_centers_and_mutual_read_the_pop_orders(monkeypatch):
    gs_spy = SearchSpy(monkeypatch, gale_shapley)
    mutual_spy = SearchSpy(monkeypatch, nnc)
    for name, seed, inst in helper_corpus(range(20)):
        prefs = build_preferences(inst)
        gs_centers_run(inst, prefs)
        mutual_closest_run(inst)
        for spy in (gs_spy, mutual_spy):
            orders, rows = spy.calls.pop()
            assert orders is not None, (name, seed)
            assert [list(o) for o in orders] == [stable_sort(row) for row in rows], (name, seed)
        assert [list(r) for r in prefs.center_prefs] == [list(o) for o in orders]


def test_absorbing_weights_take_the_sorting_fallback(monkeypatch):
    gs_spy = SearchSpy(monkeypatch, gale_shapley)
    mutual_spy = SearchSpy(monkeypatch, nnc)
    fallbacks = 0
    for seed in ABSORBING_SEEDS:
        inst = random_absorbing_instance(seed)
        in_order = settles_in_order(inst.graph)
        fallbacks += not in_order
        prefs = build_preferences(inst)
        center_prefs = [list(r) for r in prefs.center_prefs]
        run = mutual_closest_run(inst)
        (gs_orders, rows), (mutual_orders, _) = gs_spy.calls.pop(), mutual_spy.calls.pop()
        assert gs_orders is not None and mutual_orders is not None, seed
        assert center_prefs == [stable_sort(row) for row in rows], seed
        assert [list(o) for o in mutual_orders] == center_prefs, seed
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
    spy = SearchSpy(monkeypatch, gale_shapley)
    inst = random_grid_instance(5)
    prefs = build_preferences(inst)
    assert spy.calls == []  # building the table searches nothing
    gs_nodes_run(inst, prefs)
    assert len(spy.calls) == 1 and spy.calls[0][0] is None  # gs-nodes records no order
    sorted_prefs = [list(r) for r in prefs.center_prefs]  # read after dist: sorted, no search
    assert len(spy.calls) == 1
    prefs = build_preferences(inst)
    gs_centers_run(inst, prefs)
    assert len(spy.calls) == 2 and spy.calls[1][0] is not None
    assert [list(r) for r in prefs.center_prefs] == sorted_prefs
    assert "node_prefs" not in vars(prefs)
    prefs.node_prefs  # the table is searched once, whichever side reads it first
    assert len(spy.calls) == 2
