from __future__ import annotations

import itertools
import tracemalloc
from collections import Counter

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
from stabledistrict import gale_shapley
from stabledistrict.bench import derive_seed
from stabledistrict.gale_shapley import gs_centers_run, gs_nodes_run
from stabledistrict.model import CENTER_BYTES, NODE_BYTES, PAIR_ENTRY_BYTES, check_table_memory
from stabledistrict.nnc import mutual_closest_run

from helpers import (
    all_solver_outputs,
    helper_corpus,
    path_graph,
    random_absorbing_instance,
    random_dimacs_instance,
    random_grid_instance,
    random_sparse_instance,
    reference_gs_nodes_run,
    reference_node_prefs,
)


def test_preferences_on_p6(p6):
    prefs = build_preferences(p6)
    node_prefs = reference_node_prefs(prefs.dist)
    assert list(node_prefs[2]) == [0, 1]  # distances 2 vs 3
    assert list(node_prefs[3]) == [1, 0]
    assert list(prefs.center_prefs[0])[:3] == [0, 1, 2]


def test_preferences_tie_break_on_p5(p5):
    prefs = build_preferences(p5)
    # node 2 is equidistant from both centers; lower center index wins
    assert list(reference_node_prefs(prefs.dist)[2]) == [0, 1]


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
        node_prefs = reference_node_prefs(prefs.dist)
        n, k = inst.graph.node_count, inst.k
        for c in range(k):
            row = list(prefs.center_prefs[c])
            assert sorted(row) == list(range(n))
            keys = [(prefs.dist[c][u], u) for u in row]
            assert all(a < b for a, b in zip(keys, keys[1:])), (make.__name__, seed, c)
        for u in range(n):
            row = list(node_prefs[u])
            assert sorted(row) == list(range(k))
            keys = [(prefs.dist[c][u], c) for c in row]
            assert all(a < b for a, b in zip(keys, keys[1:])), (make.__name__, seed, u)


def test_each_run_sorts_only_the_side_it_reads():
    inst = random_grid_instance(7)
    prefs = build_preferences(inst)
    assert set(vars(prefs)) == {"inst"}
    gs_centers_run(inst, prefs)
    assert set(vars(prefs)) == {"inst", "dist", "center_prefs"}
    prefs = build_preferences(inst)
    gs_nodes_run(inst, prefs)
    assert set(vars(prefs)) == {"inst", "dist"}  # the node side keeps no lists on the table


def _edge_k_instances():
    """Instances whose k is 1, 2, n - 1 or n: a 10x10 jitter-7 grid (three
    center sets each) and two sparse graphs of 200 and 172 nodes."""
    grid = generate_grid(10, 10, jitter_seed=7)
    sparse = [random_sparse_instance(seed, max_n=200).graph for seed in (0, 2)]
    for g, sets in [(grid, 3)] + [(g, 1) for g in sparse]:
        n = g.node_count
        for k, i in itertools.product((1, 2, n - 1, n), range(sets)):
            yield Instance(g, sample_centers(n, k, derive_seed(1, k, i)), equal_quotas(n, k))


def test_gs_nodes_run_equals_the_eager_reference():
    # The reference ranks every node's centers before the first proposal;
    # gs_nodes_run must make the same proposals and reach the same match.
    # Gale-Shapley reads only the table, so absorbing graphs are in scope.
    cases = [(name, seed, inst) for name, seed, inst in helper_corpus()]
    cases += [("random_absorbing_instance", seed, random_absorbing_instance(seed)) for seed in range(300)]
    cases += [("edge_k", inst.k, inst) for inst in _edge_k_instances()]
    for name, seed, inst in cases:
        prefs = build_preferences(inst, memory_cap_bytes=None)
        assert gs_nodes_run(inst, prefs) == reference_gs_nodes_run(inst, prefs.dist), (name, seed)


def test_a_node_is_ranked_once_and_only_after_a_center_turns_it_away(monkeypatch, p6, p5):
    ranked_columns = []

    def recording_sorted(iterable, *, key):
        ranked_columns.append(tuple(key.__self__))  # the column the key reads
        return sorted(iterable, key=key)

    monkeypatch.setattr(gale_shapley, "sorted", recording_sorted, raising=False)

    def rankings(inst):
        ranked_columns.clear()
        prefs = build_preferences(inst)
        run = gs_nodes_run(inst, prefs)
        return run, prefs.dist, list(ranked_columns)

    run, _, ranked = rankings(p6)
    assert ranked == [] and run.proposals == 6
    # p5's node 2 ties at distance 2; proposing to center 0 first, it is
    # accepted at once, so nobody is turned away.
    run, _, ranked = rankings(p5)
    assert ranked == [] and run.proposals == 5 and run.assignment.match == [0, 0, 0, 1, 1]

    g = generate_grid(32, 32, jitter_seed=7)
    n = g.node_count
    grid = Instance(g, sample_centers(n, 64, derive_seed(1, 64, 0)), equal_quotas(n, 64))
    for inst in [random_grid_instance(seed) for seed in range(20)] + [grid]:
        run, dist, ranked = rankings(inst)
        columns = [tuple(column) for column in zip(*dist)]
        assert len(set(columns)) == inst.graph.node_count  # a column names its node
        first_choice = [row[0] for row in reference_node_prefs(dist)]
        # A node moves down its list only when turned away, so it ends off
        # its first choice exactly when some center turned it away.
        turned_away = [u for u, c in enumerate(run.assignment.match) if c != first_choice[u]]
        assert Counter(ranked) == Counter(columns[u] for u in turned_away)
    # grid-manyk's shape: some nodes are turned away, most are never ranked.
    assert 0 < len(ranked) < n // 2


def test_every_solver_returns_mutuals_assignment_at_k_near_n():
    # The helper corpus reaches k = n only where n <= 12. Every graph here
    # settles in order, so circle and nnc accept it.
    for inst in _edge_k_instances():
        if inst.k < inst.graph.node_count - 1:
            continue
        outputs = all_solver_outputs(inst)
        want = outputs["mutual"]
        for algo, got in outputs.items():
            assert (got.match, got.dist) == (want.match, want.dist), (algo, inst.graph.node_count, inst.k)


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


def _build_and_run_both_sides(inst, first, second):
    # The centers' lists stay on the table once gs_centers_run has read
    # them, and gs_nodes_run ranks the centers of every node turned away; a
    # caller that runs both on one table (the solver cross-checks do) holds
    # the most one table can.
    prefs = build_preferences(inst, memory_cap_bytes=None)
    first(inst, prefs)
    second(inst, prefs)


def test_memory_estimates_cover_traced_peaks():
    # The caps refuse a run by this one estimate, so it must bound what
    # both table solvers really allocate, or a run under the cap can still
    # die mid-way. The 32x32 k=64 and 64x64 k=8 jitter-7 grids have the
    # shapes of the many-centers and ingest benchmark workloads, 50x50 k=32
    # that of the road one; at k=1 and k=2 the per-node terms (the
    # matching's per-node lists and heap entries, one row's ranking
    # scratch) outweigh the per-pair ones; at 16x16 with k = n = 256 the
    # per-pair term is 91% of the bound.
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
        for runs in ((gs_centers_run, gs_nodes_run), (gs_nodes_run, gs_centers_run)):
            gs_peak = _traced_peak(lambda: _build_and_run_both_sides(inst, *runs))
            assert gs_peak <= bound, (n, k, runs[0].__name__, gs_peak)
        mutual_peak = _traced_peak(lambda: mutual_closest_run(inst, memory_cap_bytes=None))
        assert mutual_peak <= bound, (n, k, mutual_peak)
