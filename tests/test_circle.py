from __future__ import annotations

import io

import pytest

from stabledistrict import (
    Instance,
    MemoryCapExceeded,
    solve_circle_growing,
    solve_mutual_closest,
)
from stabledistrict.circle import circle_growing_run, estimate_circle_bytes
from stabledistrict.gale_shapley import build_preferences, gs_centers_run

from helpers import (
    acceptance_grid_instance,
    path_graph,
    random_grid_instance,
    random_sparse_instance,
)


def test_p6_halts_each_instance_at_quota(p6):
    trace = io.StringIO()
    run = circle_growing_run(p6, trace=trace)
    assert run.assignment.match == [0, 0, 0, 1, 1, 1]
    assert run.settled_total == 6  # each instance settles exactly its own 3
    events = [line.split("\t") for line in trace.getvalue().splitlines()]
    settled_by_c0 = {int(e[2]) for e in events if e[0] == "settle" and e[1] == "0"}
    assert settled_by_c0 == {0, 1, 2}  # never reaches nodes 4, 5
    assert sum(1 for e in events if e[0] == "match") == 6
    assert sum(1 for e in events if e[0] == "halt") == 2


def test_p5_tie_goes_to_lower_center_index(p5):
    assert solve_circle_growing(p5).match == [0, 0, 0, 1, 1]


def test_single_center_settles_everything():
    g = path_graph(9)
    inst = Instance(g, [4], [9])
    run = circle_growing_run(inst)
    assert run.settled_total == 9
    assert run.assignment.match == [0] * 9


def test_path_worst_case_with_tiny_first_quota():
    # both instances traverse nearly the whole path when the center next to
    # the end blocks the other until its own quota is exhausted
    n = 1000
    g = path_graph(n)
    run = circle_growing_run(Instance(g, [0, 1], [2, n - 2]))
    assert run.settled_total >= 2 * n - 10


def test_settled_total_bounded_by_nk():
    for seed in range(8):
        inst = random_grid_instance(seed)
        run = circle_growing_run(inst)
        assert run.settled_total <= inst.graph.node_count * inst.k
        assert run.settled_total >= inst.graph.node_count


def test_work_counters_require_instrumentation(p6):
    # No instrumentation is needed: every run keeps its work counters, and
    # writing a trace leaves them unchanged.
    plain = circle_growing_run(p6)
    assert (plain.settled_total, plain.pushed_total >= 6) == (6, True)
    traced = circle_growing_run(p6, trace=io.StringIO())
    assert (traced.settled_total, traced.pushed_total) == (
        plain.settled_total,
        plain.pushed_total,
    )


def test_settles_equal_gs_centers_proposals():
    # Both counters equal the sum over centers of how far down its list
    # each center's final worst member sits: circle growing settles exactly
    # that ball, and a proposing center's last proposal is always the
    # acceptance it keeps, its worst final member.
    mismatches = []
    for make in (random_grid_instance, random_sparse_instance, acceptance_grid_instance):
        for seed in range(60):
            inst = make(seed)
            settled = circle_growing_run(inst).settled_total
            proposals = gs_centers_run(inst, build_preferences(inst)).proposals
            if settled != proposals:
                mismatches.append((make.__name__, seed, settled, proposals))
    assert not mismatches


def test_memory_cap_refusal(p6):
    assert estimate_circle_bytes(1000, 8) == 8 * 125
    with pytest.raises(MemoryCapExceeded):
        circle_growing_run(p6, memory_cap_bytes=1)
    circle_growing_run(p6, memory_cap_bytes=None)


def test_trace_records_are_well_formed(p5):
    trace = io.StringIO()
    circle_growing_run(p5, trace=trace)
    for line in trace.getvalue().splitlines():
        event, center, node, dist = line.split("\t")
        assert event in ("settle", "match", "halt")
        assert 0 <= int(center) < p5.k
        assert 0 <= int(node) < p5.graph.node_count
        float(dist)


@pytest.mark.parametrize("seed", range(10))
def test_matches_the_reference_solver(seed):
    inst = random_sparse_instance(seed) if seed % 2 else random_grid_instance(seed)
    assert solve_circle_growing(inst) == solve_mutual_closest(inst)


@pytest.mark.parametrize("seed", range(5))
def test_each_match_is_the_global_minimum_open_pair(seed):
    # replay the trace: every match event must pick the minimum-score pair
    # among (unmatched node, unfilled center) pairs at that moment
    from stabledistrict import compute_center_distances

    inst = random_grid_instance(seed, max_side=5)
    table = compute_center_distances(inst)
    trace = io.StringIO()
    circle_growing_run(inst, trace=trace)
    unmatched = set(range(inst.graph.node_count))
    remaining = list(inst.quotas)
    for line in trace.getvalue().splitlines():
        event, center, node, dist = line.split("\t")
        if event != "match":
            continue
        c, u = int(center), int(node)
        best = min(
            (table[c2][v], v, c2)
            for c2 in range(inst.k)
            if remaining[c2] > 0
            for v in unmatched
        )
        assert best == (float(dist), u, c)
        unmatched.remove(u)
        remaining[c] -= 1
    assert not unmatched
