from __future__ import annotations

import pytest

from stabledistrict import (
    Instance,
    OracleError,
    Score,
    compute_center_distances,
    fast_oracle_factory,
    solve,
    verify_stable,
)
from stabledistrict.bench import SplitMix64
from stabledistrict.circle import circle_growing_run
from stabledistrict.model import check_table_memory
from stabledistrict.nnc import mutual_closest_run, nnc_run

from helpers import (
    acceptance_grid_instance,
    check_mutual_closest_steps,
    mutual_match_order,
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


def test_center_oracle_tie_prefers_lower_center_index():
    # centers listed so that the tie at node 2 must go to index 0 (= node 3),
    # even though node 1 has the smaller vertex id
    g = path_graph(5)
    inst = Instance(g, [3, 1], [3, 2])
    for factory in (truncated_dijkstra_oracle, fast_oracle_factory):
        oracle = factory(inst, "centers")
        score, ci = oracle.nearest(2)
        assert (score, ci) == (Score(1.0, 2, 0), 0)


@pytest.mark.parametrize("seed", range(10))
def test_fast_oracles_agree_with_truncated_under_fuzz(seed):
    for inst in (random_grid_instance(seed, max_side=6), random_sparse_instance(seed)):
        n, k = inst.graph.node_count, inst.k
        rng = SplitMix64(seed * 31 + 7)
        slow = truncated_dijkstra_oracle(inst, "centers")
        fast = fast_oracle_factory(inst, "centers")
        removed: set[int] = set()
        for _ in range(120):
            if rng.next_below(4) == 0 and len(removed) < k:
                x = rng.next_below(k)
                slow.remove(x)
                fast.remove(x)
                removed.add(x)
            else:
                q = rng.next_below(n)
                assert slow.nearest(q) == fast.nearest(q)


def test_fast_oracle_factory_has_no_nodes_side(p6):
    with pytest.raises(ValueError, match="unknown side"):
        fast_oracle_factory(p6, "nodes")


def test_chain_solves_p6(p6):
    assert solve(p6, "nnc")[0].match == [0, 0, 0, 1, 1, 1]


@pytest.mark.parametrize("seed", range(15))
def test_chain_matches_reference_with_both_factories(seed):
    inst = random_sparse_instance(seed) if seed % 2 else random_grid_instance(seed)
    expected = solve(inst, "mutual")[0]
    fast = nnc_run(inst, fast_oracle_factory)
    slow = nnc_run(inst, truncated_dijkstra_oracle)
    assert fast.assignment == expected
    assert slow.assignment == expected
    assert fast[1:] == slow[1:]
    n = inst.graph.node_count
    assert (fast.seeds, fast.stack_pushes, fast.oracle_updates) == (n, 2 * n, inst.k)
    assert fast.oracle_queries >= n


class _MisbehavingOracle:
    """Wraps the label oracle; once a center fills, every query gets
    ``answer(node, first filled center)``. Caps its calls so a solver that re-queries
    forever fails instead of hanging."""

    def __init__(self, inst, answer):
        self.inner = fast_oracle_factory(inst, "centers")
        self.answer = answer
        self.filled: list[int] = []
        self.calls = 0
        self.cap = 4 * inst.graph.node_count

    def nearest(self, q):
        self.calls += 1
        assert self.calls <= self.cap, "solver kept querying a misbehaving oracle"
        if self.filled:
            return self.answer(q, self.filled[0])
        return self.inner.nearest(q)

    def remove(self, x):
        self.filled.append(x)
        self.inner.remove(x)


# Center 0 (node 1) fills with node 1 while nodes 0 and 2 are still
# labeled with it, so both need a re-query.
_STALE_LABELS = Instance(path_graph(5), [1, 3], [1, 4])


def test_broken_oracle_aborts():
    # keeps naming the full center, so a loop that re-queries would spin
    def factory(inst, side):
        return _MisbehavingOracle(inst, lambda q, c: (Score(0.0, q, c), c))

    with pytest.raises(OracleError, match="exhausted center"):
        nnc_run(_STALE_LABELS, factory)


def test_empty_oracle_aborts_while_nodes_are_unmatched():
    def factory(inst, side):
        return _MisbehavingOracle(inst, lambda q, c: None)

    with pytest.raises(OracleError, match="empty while nodes are unmatched"):
        nnc_run(_STALE_LABELS, factory)


def test_mutual_closest_match_order(p4):
    run = mutual_closest_run(p4)
    assert mutual_match_order(run.assignment) == [(0, 0), (1, 1), (2, 1), (3, 0)]
    assert run.assignment.match == [0, 1, 1, 0]


def test_mutual_closest_examples(p5, p6):
    assert solve(p5, "mutual")[0].match == [0, 0, 0, 1, 1]
    assert solve(p6, "mutual")[0].match == [0, 0, 0, 1, 1, 1]


def test_mutual_closest_pops_pairs_as_one_heap_of_all_pairs():
    # The k-way merge of sorted rows must match the same pairs in the same
    # order as one heap over all n*k (dist, node, center) triples.
    for seed in range(60):
        for inst in (
            random_grid_instance(seed),
            random_sparse_instance(seed),
            acceptance_grid_instance(seed),
        ):
            run = mutual_closest_run(inst)
            match, dist, order = reference_mutual_closest(inst)
            assert run.assignment.match == match
            assert run.assignment.dist == dist
            assert mutual_match_order(run.assignment) == order
            # a full center's row leaves the merge, so each center pops
            # exactly its ball up to its worst member
            assert run.pops == circle_growing_run(inst).settled_total


@pytest.mark.parametrize("seed", range(8))
def test_mutual_closest_output_is_stable_and_steps_check_out(seed):
    inst = random_sparse_instance(seed, max_n=25)
    run = mutual_closest_run(inst)
    order = mutual_match_order(run.assignment)
    check_mutual_closest_steps(inst, order)
    assert verify_stable(inst, run.assignment, compute_center_distances(inst)) is None
    assert len(order) == inst.graph.node_count


def test_mutual_closest_memory_cap(p6):
    from stabledistrict import MemoryCapExceeded

    tight = check_table_memory("mutual", p6.graph.node_count, p6.k, None)
    mutual_closest_run(p6, memory_cap_bytes=tight)  # exactly at the cap is allowed
    with pytest.raises(MemoryCapExceeded) as err:
        mutual_closest_run(p6, memory_cap_bytes=tight - 1)
    assert err.value.algorithm == "mutual" and err.value.required_bytes == tight
    mutual_closest_run(p6, memory_cap_bytes=None)  # override disables the cap
