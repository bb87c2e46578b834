from __future__ import annotations

import itertools
import tracemalloc

import pytest

from stabledistrict import (
    Instance,
    MemoryCapExceeded,
    build_preferences,
    compute_center_distances,
    dijkstra,
    equal_quotas,
    generate_grid,
    sample_centers,
    solve,
    verify_stable,
)
from stabledistrict.bench import derive_seed
from stabledistrict.gale_shapley import gs_centers_run, gs_nodes_run
from stabledistrict.model import CENTER_BYTES, NODE_BYTES, PAIR_ENTRY_BYTES, check_table_memory
from stabledistrict.nnc import mutual_closest_run

from helpers import path_graph, random_dimacs_instance, random_grid_instance, random_sparse_instance


def test_preferences_on_p6(p6):
    prefs = build_preferences(p6)
    assert list(prefs.node_prefs[2]) == [0, 1]  # distances 2 vs 3
    assert list(prefs.node_prefs[3]) == [1, 0]
    assert list(prefs.center_prefs[0])[:3] == [0, 1, 2]


def test_preferences_tie_break_on_p5(p5):
    prefs = build_preferences(p5)
    # node 2 is equidistant from both centers; lower center index wins
    assert list(prefs.node_prefs[2]) == [0, 1]


def test_preference_distances_match_reverse_dijkstra(p5):
    prefs = build_preferences(p5)
    for c_idx, center in enumerate(p5.centers):
        for u in range(p5.graph.node_count):
            assert prefs.dist[c_idx][u] == dijkstra(p5.graph, u)[center]


def test_preference_rows_are_strictly_sorted_permutations():
    # The integer weights of the DIMACS instances tie distances exactly, so
    # the node side's order among equidistant centers is the index order.
    makers = (random_grid_instance, random_sparse_instance, random_dimacs_instance)
    for make, seed in itertools.product(makers, range(20)):
        inst = make(seed)
        prefs = build_preferences(inst)
        n, k = inst.graph.node_count, inst.k
        for c in range(k):
            row = list(prefs.center_prefs[c])
            assert sorted(row) == list(range(n))
            keys = [(prefs.dist[c][u], u) for u in row]
            assert all(a < b for a, b in zip(keys, keys[1:])), (make.__name__, seed, c)
        for u in range(n):
            row = list(prefs.node_prefs[u])
            assert sorted(row) == list(range(k))
            keys = [(prefs.dist[c][u], c) for c in row]
            assert all(a < b for a, b in zip(keys, keys[1:])), (make.__name__, seed, u)


def test_each_run_sorts_only_the_side_it_reads():
    inst = random_grid_instance(7)
    prefs = build_preferences(inst)
    assert "center_prefs" not in vars(prefs) and "node_prefs" not in vars(prefs)
    gs_centers_run(inst, prefs)
    assert "center_prefs" in vars(prefs) and "node_prefs" not in vars(prefs)
    prefs = build_preferences(inst)
    gs_nodes_run(inst, prefs)
    assert "node_prefs" in vars(prefs) and "center_prefs" not in vars(prefs)


def test_gs_centers_examples(p6, p5):
    assert solve(p6, "gs-centers")[0].match == [0, 0, 0, 1, 1, 1]
    assert solve(p5, "gs-centers")[0].match == [0, 0, 0, 1, 1]
    g = path_graph(4)
    inst = Instance(g, [2], [4])
    assert solve(inst, "gs-centers")[0].match == [0, 0, 0, 0]


def test_gs_nodes_examples(p6, p5, p4):
    for inst in (p6, p5):
        prefs = build_preferences(inst)
        assert gs_nodes_run(inst, prefs).assignment == gs_centers_run(inst, prefs).assignment
    assert solve(p4, "gs-nodes")[0].match == [0, 1, 1, 0]


def test_single_node_instance():
    # a single node has no edges; build the graph explicitly
    from stabledistrict import RoadGraph

    g = RoadGraph.from_edges([], node_ids=[0])
    inst = Instance(g, [0], [1])
    prefs = build_preferences(inst)
    assert gs_nodes_run(inst, prefs).assignment.match == [0]
    assert gs_centers_run(inst, prefs).assignment.match == [0]


@pytest.mark.parametrize("seed", range(12))
def test_both_variants_agree_and_are_stable(seed):
    inst = random_grid_instance(seed) if seed % 2 else random_sparse_instance(seed)
    prefs = build_preferences(inst)
    run_c = gs_centers_run(inst, prefs)
    run_n = gs_nodes_run(inst, prefs)
    assert run_c.assignment == run_n.assignment
    n, k = inst.graph.node_count, inst.k
    assert run_c.proposals <= n * k
    assert run_n.proposals <= n * k
    assert verify_stable(inst, run_c.assignment, compute_center_distances(inst)) is None


def test_memory_estimate_and_refusal():
    expected = 100 * 8 * PAIR_ENTRY_BYTES + 100 * NODE_BYTES + 8 * CENTER_BYTES
    assert check_table_memory("gale-shapley", 100, 8, None) == expected
    inst = random_grid_instance(3)
    n, k = inst.graph.node_count, inst.k
    tight = check_table_memory("gale-shapley", n, k, None)
    build_preferences(inst, memory_cap_bytes=tight)  # exactly at the cap is allowed
    with pytest.raises(MemoryCapExceeded) as err:
        build_preferences(inst, memory_cap_bytes=tight - 1)
    assert err.value.algorithm == "gale-shapley"
    assert err.value.required_bytes == tight and err.value.cap_bytes == tight - 1
    build_preferences(inst, memory_cap_bytes=None)  # override disables the cap


def test_quota_one_per_center():
    g = path_graph(3)
    inst = Instance(g, [0, 1, 2], equal_quotas(3, 3))
    prefs = build_preferences(inst)
    assert gs_centers_run(inst, prefs).assignment.match == [0, 1, 2]
    assert gs_nodes_run(inst, prefs).assignment.match == [0, 1, 2]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# List, tuple and object headers that one call allocates whatever n and k
# are; they outweigh the n*k terms only on instances of a few nodes.
FIXED_CALL_BYTES = 1024


def _build_and_read_both_sides(inst, first, second):
    # Each side is built on first read; a caller that reads both (the
    # solver cross-checks do) holds the most one table can.
    prefs = build_preferences(inst, memory_cap_bytes=None)
    return getattr(prefs, first), getattr(prefs, second)


def test_memory_estimates_cover_traced_peaks():
    # The caps refuse a run by this one estimate, so it must bound what
    # both table solvers really allocate, or a run under the cap can still
    # die mid-way. The 32x32 k=64 and 64x64 k=8 jitter-7 grids have the
    # shapes of the many-centers and ingest benchmark workloads, 50x50 k=32
    # that of the road one; at k=1 and k=2 the per-node terms (one-center
    # preference arrays, one row's ranking scratch) outweigh the per-pair
    # ones; at 16x16 with k = n = 256 the per-pair term is 91% of the bound.
    grids = []
    for side, k in ((32, 64), (64, 8), (50, 32), (32, 1), (32, 2), (64, 1), (64, 2), (16, 256)):
        g = generate_grid(side, side, jitter_seed=7)
        n = g.node_count
        inst = Instance(g, sample_centers(n, k, derive_seed(1, k, 0)), equal_quotas(n, k))
        grids.append((inst, 0))
    sparse = [(random_sparse_instance(s, max_n=200), FIXED_CALL_BYTES) for s in range(20)]
    for inst, slack in grids + sparse:
        n, k = inst.graph.node_count, inst.k
        bound = check_table_memory("any", n, k, None) + slack
        for sides in (("center_prefs", "node_prefs"), ("node_prefs", "center_prefs")):
            gs_peak = _traced_peak(lambda: _build_and_read_both_sides(inst, *sides))
            assert gs_peak <= bound, (n, k, sides, gs_peak)
        mutual_peak = _traced_peak(lambda: mutual_closest_run(inst, memory_cap_bytes=None))
        assert mutual_peak <= bound, (n, k, mutual_peak)
