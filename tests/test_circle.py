from __future__ import annotations

import io
import tracemalloc

import pytest

from stabledistrict import (
    Instance,
    compute_center_distances,
    equal_quotas,
    generate_grid,
    solve,
)
from stabledistrict.bench import derive_seed, sample_centers
from stabledistrict.circle import circle_growing_run
from stabledistrict.gale_shapley import build_preferences, gs_centers_run

from helpers import (
    acceptance_grid_instance,
    path_graph,
    random_float_instance,
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
    assert solve(p5, "circle")[0].match == [0, 0, 0, 1, 1]


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


def test_a_closed_center_frees_its_search():
    # A center that leaves the merge drops its ball and its suspended
    # stream; keeping all 64 to the end peaked at 0.60 MiB here.
    g = generate_grid(32, 32, jitter_seed=7)
    n = g.node_count
    inst = Instance(g, sample_centers(n, 64, derive_seed(1, 64, 0)), equal_quotas(n, 64))
    tracemalloc.start()
    try:
        run = circle_growing_run(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (run.settled_total, run.pushed_total) == (7450, 8785)
    assert peak < 0.4 * 2**20


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


def test_each_center_settles_exactly_its_ball():
    # A center halts at its last match w, so it settles exactly the nodes
    # that score at or below w from it, each once: the ball of nodes v with
    # (row[v], v) <= (row[w], w) in its full distance row.
    wrong = []
    for make in (
        random_grid_instance,
        random_sparse_instance,
        acceptance_grid_instance,
        random_float_instance,
    ):
        for seed in range(60):
            inst = make(seed)
            trace = io.StringIO()
            circle_growing_run(inst, trace=trace)
            settled: list[list[int]] = [[] for _ in range(inst.k)]
            last = [-1] * inst.k
            for line in trace.getvalue().splitlines():
                event, center, node, _ = line.split("\t")
                if event == "settle":
                    settled[int(center)].append(int(node))
                elif event == "match":
                    last[int(center)] = int(node)
            for c, row in enumerate(compute_center_distances(inst)):
                w = last[c]
                ball = {v for v in range(inst.graph.node_count) if (row[v], v) <= (row[w], w)}
                if len(set(settled[c])) != len(settled[c]) or set(settled[c]) != ball:
                    wrong.append((make.__name__, seed, c))
    assert not wrong


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
    assert solve(inst, "circle")[0] == solve(inst, "mutual")[0]


@pytest.mark.parametrize("seed", range(5))
def test_each_match_is_the_global_minimum_open_pair(seed):
    # replay the trace: every match event must pick the minimum-score pair
    # among (unmatched node, unfilled center) pairs at that moment
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
