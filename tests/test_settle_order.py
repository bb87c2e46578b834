"""The settle-order guard: a center's search pops its preference list.

Where no weight can be absorbed by rounding, each full search's pop order
is the stable sort of its distance row, so gs-centers and the mutual
reference read it instead of sorting. Where one can, they sort, and circle
growing and the chain solver refuse the graph.
"""

from __future__ import annotations

import pytest

from stabledistrict import (
    GraphError,
    RoadGraph,
    build_preferences,
    compute_center_distances,
    dijkstra,
    mutual_closest_run,
    solve_circle_growing,
    solve_gs_centers,
    solve_gs_nodes,
    solve_nnc,
)
from stabledistrict import gale_shapley, nnc
from stabledistrict.gale_shapley import gs_centers_run, gs_nodes_run
from stabledistrict.graph import require_settles_in_order, settles_in_order

from helpers import helper_corpus, random_absorbing_instance, random_grid_instance, reference_mutual_closest

ABSORBING_SEEDS = range(300)


def stable_sort(row) -> list[int]:
    return sorted(range(len(row)), key=lambda v: (row[v], v))


class SearchSpy:
    """Wraps a module's ``compute_center_distances``; records, per call,
    the pop orders it was asked for (None when it was not) and its rows."""

    def __init__(self, monkeypatch, module):
        self.calls: list[tuple[list | None, list]] = []
        inner = module.compute_center_distances

        def spy(inst, orders=None):
            rows = inner(inst, orders)
            self.calls.append((orders, [list(row) for row in rows]))
            return rows

        monkeypatch.setattr(module, "compute_center_distances", spy)


def test_the_witness_pops_out_of_order_and_fails_the_guard():
    g = RoadGraph.from_edges([(3, 2, 1.0), (2, 0, 1e-17), (3, 1, 1.0)])
    order: list[int] = []
    row = dijkstra(g, 3, order=order)
    assert order == [3, 1, 2, 0]  # 2 + 1e-17 == 2: node 0 is pushed tied after node 1 pops
    assert stable_sort(row) == [3, 0, 1, 2]
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
    ranked = []
    rank_rows = nnc.rank_rows
    monkeypatch.setattr(nnc, "rank_rows", lambda rows: ranked.append(rank_rows(rows)) or ranked[-1])
    fallbacks = 0
    for seed in ABSORBING_SEEDS:
        inst = random_absorbing_instance(seed)
        in_order = settles_in_order(inst.graph)
        fallbacks += not in_order
        prefs = build_preferences(inst)
        center_prefs = [list(r) for r in prefs.center_prefs]
        run = mutual_closest_run(inst)
        (gs_orders, rows), (mutual_orders, _) = gs_spy.calls.pop(), mutual_spy.calls.pop()
        assert (gs_orders is not None, mutual_orders is not None) == (in_order, in_order), seed
        mutual_rows = mutual_orders if in_order else ranked.pop()
        assert center_prefs == [stable_sort(row) for row in rows], seed
        assert [list(r) for r in mutual_rows] == center_prefs, seed
        match, dist, _ = reference_mutual_closest(inst)
        for a in (solve_gs_centers(inst, prefs), solve_gs_nodes(inst, prefs), run.assignment):
            assert (a.match, a.dist) == (match, dist), seed
        for solve in (solve_circle_growing, solve_nnc):
            if in_order:
                assert solve(inst).match == match, seed
            else:
                with pytest.raises(GraphError, match="smallest edge weight 1e-17"):
                    solve(inst)
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
