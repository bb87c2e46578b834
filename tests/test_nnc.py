from __future__ import annotations

import pytest

from stabledistrict import (
    Instance,
    OracleError,
    Score,
    compute_center_distances,
    fast_oracle_factory,
    solve_mutual_closest,
    solve_nnc,
    verify_stable,
)
from stabledistrict.bench import SplitMix64
from stabledistrict.nnc import mutual_closest_run, nnc_run

from helpers import (
    acceptance_grid_instance,
    path_graph,
    random_grid_instance,
    random_sparse_instance,
    reference_mutual_closest,
    truncated_dijkstra_oracle,
)


def test_truncated_center_oracle_basics(p6):
    oracle = truncated_dijkstra_oracle(p6, "centers")
    assert oracle.nearest(1) == (Score(1.0, 1, 0), 0)
    oracle.remove(0)
    assert oracle.nearest(1) == (Score(4.0, 1, 1), 1)
    oracle.remove(1)
    assert oracle.nearest(1) is None


def test_truncated_node_oracle_basics(p6):
    oracle = truncated_dijkstra_oracle(p6, "nodes")
    assert oracle.nearest(0) == (Score(0.0, 0, 0), 0)
    oracle.remove(0)
    assert oracle.nearest(0) == (Score(1.0, 1, 0), 1)
    for v in range(6):
        oracle.remove(v)
    assert oracle.nearest(0) is None


def test_center_oracle_tie_prefers_lower_center_index():
    # centers listed so that the tie at node 2 must go to index 0 (= node 3),
    # even though node 1 has the smaller vertex id
    g = path_graph(5)
    inst = Instance(g, [3, 1], [3, 2])
    for factory in (truncated_dijkstra_oracle, fast_oracle_factory):
        oracle = factory(inst, "centers")
        score, ci = oracle.nearest(2)
        assert (score, ci) == (Score(1.0, 2, 0), 0)


def test_node_oracle_tie_prefers_lower_node_id():
    g = path_graph(5)
    inst = Instance(g, [2], [5])
    for factory in (truncated_dijkstra_oracle, fast_oracle_factory):
        oracle = factory(inst, "nodes")
        oracle.remove(2)
        score, v = oracle.nearest(0)
        assert (score, v) == (Score(1.0, 1, 0), 1)  # nodes 1 and 3 tie at d=1


@pytest.mark.parametrize("seed", range(10))
def test_fast_oracles_agree_with_truncated_under_fuzz(seed):
    for inst in (random_grid_instance(seed, max_side=6), random_sparse_instance(seed)):
        n, k = inst.graph.node_count, inst.k
        rng = SplitMix64(seed * 31 + 7)
        slow_c = truncated_dijkstra_oracle(inst, "centers")
        fast_c = fast_oracle_factory(inst, "centers")
        slow_n = truncated_dijkstra_oracle(inst, "nodes")
        fast_n = fast_oracle_factory(inst, "nodes")
        removed_c: set[int] = set()
        removed_n: set[int] = set()
        for _ in range(120):
            action = rng.next_below(4)
            if action == 0 and len(removed_c) < k:
                x = rng.next_below(k)
                slow_c.remove(x)
                fast_c.remove(x)
                removed_c.add(x)
            elif action == 1 and len(removed_n) < n:
                x = rng.next_below(n)
                slow_n.remove(x)
                fast_n.remove(x)
                removed_n.add(x)
            elif action == 2:
                q = rng.next_below(n)
                assert slow_c.nearest(q) == fast_c.nearest(q)
            else:
                q = rng.next_below(k)
                assert slow_n.nearest(q) == fast_n.nearest(q)


def test_chain_solves_p6(p6):
    assert solve_nnc(p6).match == [0, 0, 0, 1, 1, 1]


@pytest.mark.parametrize("seed", range(15))
def test_chain_matches_reference_with_both_factories(seed):
    inst = random_sparse_instance(seed) if seed % 2 else random_grid_instance(seed)
    expected = solve_mutual_closest(inst)
    fast = nnc_run(inst, fast_oracle_factory)
    slow = nnc_run(inst, truncated_dijkstra_oracle)
    assert fast.assignment == expected
    assert slow.assignment == expected
    n = inst.graph.node_count
    assert fast.stack_pushes <= 2 * n + fast.seeds
    assert fast.seeds >= 1


def test_broken_oracle_aborts(p6):
    class LyingNodeOracle:
        def __init__(self, inner):
            self.inner = inner
            self.matched: list[int] = []

        def nearest(self, q):
            if self.matched:
                return Score(0.0, self.matched[0], q), self.matched[0]
            return self.inner.nearest(q)

        def remove(self, x):
            self.matched.append(x)
            self.inner.remove(x)

    def factory(inst, side):
        inner = fast_oracle_factory(inst, side)
        return LyingNodeOracle(inner) if side == "nodes" else inner

    with pytest.raises(OracleError, match="matched node"):
        nnc_run(p6, factory)


def test_mutual_closest_match_order(p4):
    run = mutual_closest_run(p4)
    assert run.order == [(0, 0), (1, 1), (2, 1), (3, 0)]
    assert run.assignment.match == [0, 1, 1, 0]


def test_mutual_closest_examples(p5, p6):
    assert solve_mutual_closest(p5).match == [0, 0, 0, 1, 1]
    assert solve_mutual_closest(p6).match == [0, 0, 0, 1, 1, 1]


def test_mutual_closest_pops_pairs_as_one_heap_of_all_pairs():
    # The k-way merge of sorted rows must pop the same pairs in the same
    # order as one heap over all n*k (dist, node, center) triples.
    for seed in range(60):
        for inst in (
            random_grid_instance(seed),
            random_sparse_instance(seed),
            acceptance_grid_instance(seed),
        ):
            run = mutual_closest_run(inst)
            match, dist, order, pops = reference_mutual_closest(inst)
            assert run.assignment.match == match
            assert run.assignment.dist == dist
            assert run.order == order
            assert run.pops == pops


@pytest.mark.parametrize("seed", range(8))
def test_mutual_closest_output_is_stable_and_steps_check_out(seed):
    inst = random_sparse_instance(seed, max_n=25)
    run = mutual_closest_run(inst, check_steps=True)
    assert verify_stable(inst, run.assignment, compute_center_distances(inst)) is None
    assert len(run.order) == inst.graph.node_count


def test_mutual_closest_memory_cap(p6):
    from stabledistrict import MemoryCapExceeded

    with pytest.raises(MemoryCapExceeded):
        mutual_closest_run(p6, memory_cap_bytes=4)
