from __future__ import annotations

import itertools
import json
import math
import struct
import tracemalloc
from array import array

import pytest

from stabledistrict import (
    Assignment,
    BlockingPair,
    DistanceMismatch,
    Instance,
    InstanceError,
    QuotaViolation,
    Score,
    assignment_summary,
    assignment_to_tsv,
    RoadGraph,
    compute_center_distances,
    dijkstra,
    equal_quotas,
    generate_grid,
    member_ball_distances,
    parse_assignment_tsv,
    solve,
    verify_stable,
)
from stabledistrict import model
from stabledistrict.bench import derive_seed, sample_centers

from helpers import (
    acceptance_grid_instance,
    all_solver_outputs,
    brute_force_blocking_pairs,
    helper_corpus,
    path_graph,
    random_float_instance,
    random_grid_instance,
    random_sparse_instance,
)


@pytest.mark.parametrize(
    "n,k,expected",
    [(6, 2, [3, 3]), (7, 3, [3, 2, 2]), (5, 5, [1, 1, 1, 1, 1]), (10, 4, [3, 3, 2, 2])],
)
def test_equal_quotas(n, k, expected):
    assert equal_quotas(n, k) == expected


@pytest.mark.parametrize("n,k", [(5, 0), (5, 6), (0, 0)])
def test_equal_quotas_rejects_bad_k(n, k):
    with pytest.raises(InstanceError):
        equal_quotas(n, k)


def test_score_cmp_examples():
    assert Score(2.0, 3, 1) < Score(2.0, 3, 5)
    assert Score(1.0, 9, 9) < Score(2.0, 0, 0)
    assert not Score(1.5, 2, 2) < Score(1.5, 2, 2)
    assert not Score(1.5, 2, 2) > Score(1.5, 2, 2)
    assert Score(2.0, 4, 0) > Score(2.0, 3, 9)


def test_score_is_a_strict_total_order():
    scores = [
        Score(d, u, c)
        for d in (0.0, 1.0, 2.5)
        for u in (0, 1, 2)
        for c in (0, 1)
    ]
    for a, b in itertools.combinations(scores, 2):
        assert (a < b) == (b > a)
        assert (a < b) != (b < a)  # all triples here are distinct
    for a, b, c in itertools.combinations(scores, 3):
        if a < b and b < c:
            assert a < c


def test_instance_validation():
    g = path_graph(4)
    with pytest.raises(InstanceError, match="distinct"):
        Instance(g, [0, 0], [2, 2])
    with pytest.raises(InstanceError, match="out of range"):
        Instance(g, [0, 7], [2, 2])
    with pytest.raises(InstanceError, match="deficit"):
        Instance(g, [0, 1], [2, 1])
    with pytest.raises(InstanceError, match="positive"):
        Instance(g, [0, 1], [4, 0])
    with pytest.raises(InstanceError, match="one quota per center"):
        Instance(g, [0, 1], [4])
    with pytest.raises(InstanceError, match="at least one center"):
        Instance(g, [], [])


def test_instance_requires_connected_graph():
    from stabledistrict import RoadGraph

    g = RoadGraph.from_edges([(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(InstanceError, match="not connected"):
        Instance(g, [0, 2], [2, 2])


def test_verify_stable_accepts_the_stable_assignment(p4):
    dists = compute_center_distances(p4)
    a = Assignment(match=[0, 1, 1, 0], dist=[0.0, 0.0, 1.0, 3.0])
    assert verify_stable(p4, a, dists) is None
    # independent route: enumerate all 8 node-center pairs directly
    assert brute_force_blocking_pairs(p4, a.match, dists) == []


def test_verify_stable_finds_blocking_pair(p4):
    dists = compute_center_distances(p4)
    a = Assignment(match=[0, 0, 1, 1], dist=[0.0, 1.0, 1.0, 2.0])
    verdict = verify_stable(p4, a, dists)
    assert isinstance(verdict, BlockingPair)
    assert (verdict.node, verdict.center) == (1, 1)
    assert verdict.pair_dist == 0.0
    assert verdict.current_dist == 1.0
    assert verdict.worst_node == 3
    assert verdict.worst_dist == 2.0
    first = brute_force_blocking_pairs(p4, a.match, dists)[0]
    assert (first[1], first[2]) == (1, 1)


def test_verify_stable_reports_quota_violation_first(p4):
    dists = compute_center_distances(p4)
    a = Assignment(match=[0, 0, 0, 1], dist=[0.0, 1.0, 2.0, 2.0])
    verdict = verify_stable(p4, a, dists)
    assert verdict == QuotaViolation(center=0, expected=2, actual=3)


def test_center_distance_rows_are_float_arrays_equal_to_dijkstra_bit_for_bit():
    # Each row is an 8-byte-per-node array("d") copied from its center's
    # search; the copy must keep every bit of the search's row.
    for name, seed, inst in helper_corpus():
        rows = compute_center_distances(inst)
        assert len(rows) == inst.k
        for c, row in zip(inst.centers, rows):
            assert type(row) is array and row.typecode == "d", (name, seed)
            want = dijkstra(inst.graph, c)
            assert row.tobytes() == struct.pack(f"{len(want)}d", *want), (name, seed, c)


def test_verify_stable_rejects_rows_of_the_wrong_length(p4):
    dists = compute_center_distances(p4)
    a = Assignment(match=[0, 1, 1, 0], dist=[0.0, 0.0, 1.0, 2.0])
    short = [dists[0], dists[1][:-1]]
    with pytest.raises(ValueError, match="distance row 1 has 3 entries, expected 4"):
        verify_stable(p4, a, short)
    long = [list(dists[0]) + [0.0], dists[1]]
    with pytest.raises(ValueError, match="distance row 0 has 5 entries, expected 4"):
        verify_stable(p4, a, long)


def test_verify_stable_matches_brute_force_on_random_assignments():
    from stabledistrict.bench import SplitMix64

    # Grids, sparse non-grid graphs and the acceptance suite's instances,
    # with equal and random quotas, each with a few members swapped.
    instances = [random_grid_instance(seed, max_side=6) for seed in range(25)]
    instances += [random_sparse_instance(seed) for seed in range(25)]
    instances += [acceptance_grid_instance(i) for i in range(25)]
    blocked = 0
    for seed, inst in enumerate(instances):
        n = inst.graph.node_count
        dists = compute_center_distances(inst)
        rng = SplitMix64(seed)
        # random quota-preserving assignment: shuffle the stable one
        match = list(solve(inst, "mutual")[0].match)
        for _ in range(4):
            u = rng.next_below(n)
            v = rng.next_below(n)
            match[u], match[v] = match[v], match[u]
        a = Assignment(match=match, dist=[dists[c][u] for u, c in enumerate(match)])
        verdict = verify_stable(inst, a, dists)
        pairs = brute_force_blocking_pairs(inst, match, dists)
        if verdict is None:
            assert pairs == []
            continue
        blocked += 1
        d, u, c = pairs[0]
        worst_dist, worst_node = max(
            (dists[c][v], v) for v in range(n) if match[v] == c
        )
        assert verdict == BlockingPair(
            node=u,
            center=c,
            pair_dist=d,
            current_dist=dists[match[u]][u],
            worst_node=worst_node,
            worst_dist=worst_dist,
        )
    assert blocked > 0


def test_member_ball_rows_drain_the_tie_band_at_the_worst_member():
    # Path 3 -1e16- 1 -1.0- 2 -1.0- 0 -3e16- 4 with centers 3 and 4. Since
    # 1e16 + 1.0 == 1e16, nodes 2 and 0 tie with center 3's worst member 1,
    # and are pushed only after node 1 is popped. Node 0 sorts below node 1,
    # so (0, center 3) blocks at the tied distance: a search that stops once
    # the last member settles leaves node 0 at inf and misses it.
    assert 1e16 + 1.0 == 1e16
    g = RoadGraph.from_edges(
        [(3, 1, 1e16), (1, 2, 1.0), (2, 0, 1.0), (0, 4, 3e16)], node_ids=range(5)
    )
    inst = Instance(g, [3, 4], [2, 3])
    full = compute_center_distances(inst)
    match = [1, 0, 1, 0, 1]
    a = Assignment(match=match, dist=[full[c][u] for u, c in enumerate(match)])
    expected = BlockingPair(
        node=0, center=0, pair_dist=1e16, current_dist=3e16, worst_node=1, worst_dist=1e16
    )
    assert verify_stable(inst, a, full) == expected
    assert verify_stable(inst, a, member_ball_distances(inst, a)) == expected


def _perturbed(match: list[int], k: int, rng) -> list[list[int]]:
    """One, two and three random swaps of ``match``, and one node moved to
    a random center (usually a quota violation)."""
    n = len(match)
    out = []
    for swaps in (1, 2, 3):
        m = list(match)
        for _ in range(swaps):
            u, v = rng.next_below(n), rng.next_below(n)
            m[u], m[v] = m[v], m[u]
        out.append(m)
    moved = list(match)
    moved[rng.next_below(n)] = rng.next_below(k)
    out.append(moved)
    return out


def test_member_ball_rows_give_the_full_rows_verdict(equivalence_suite):
    from stabledistrict.bench import SplitMix64

    # The acceptance suite, dyadic grids and sparse graphs, and graphs with
    # non-dyadic float weights down to 1e-9: every solver's output (stable
    # on all of them), perturbations of mutual's, and mutual's with one
    # distance one ulp off.
    cases = [(inst, outputs) for _, inst, outputs in equivalence_suite[0]]
    for seed in range(60):
        for inst in (random_grid_instance(seed), random_sparse_instance(seed)):
            cases.append((inst, all_solver_outputs(inst)))
    for seed in range(300):
        inst = random_float_instance(seed)
        cases.append((inst, all_solver_outputs(inst)))
    verdicts = {"stable": 0, "blocked": 0, "quota": 0, "distance": 0}
    for seed, (inst, outputs) in enumerate(cases):
        full = compute_center_distances(inst)
        solved = [a.match for a in outputs.values()]
        for match in solved + _perturbed(outputs["mutual"].match, inst.k, SplitMix64(seed)):
            a = Assignment(match=match, dist=[full[c][u] for u, c in enumerate(match)])
            expected = verify_stable(inst, a, full)
            assert expected is None or match not in solved, seed
            assert verify_stable(inst, a, member_ball_distances(inst, a)) == expected, seed
            if expected is None:
                verdicts["stable"] += 1
            else:
                verdicts["blocked" if isinstance(expected, BlockingPair) else "quota"] += 1
        # The stable assignment with one claimed distance one ulp too far.
        u = seed % inst.graph.node_count
        match = outputs["mutual"].match
        dist = [full[c][v] for v, c in enumerate(match)]
        true = dist[u]
        dist[u] = math.nextafter(true, math.inf)
        a = Assignment(match=match, dist=dist)
        expected = DistanceMismatch(node=u, center=match[u], claimed=dist[u], true=true)
        assert verify_stable(inst, a, full) == expected, seed
        assert verify_stable(inst, a, member_ball_distances(inst, a)) == expected, seed
        verdicts["distance"] += 1
    assert sum(verdicts.values()) == 620 * 10
    assert min(verdicts.values()) > 300, verdicts


def test_integer_dimacs_instances_agree_and_verify_stable():
    # Every search runs outward from a center, so on the whole helper corpus
    # (float weights included) the five solvers' match and dist agree bit for
    # bit, and each solver's own dist verifies against full rows and balls.
    # Integer DIMACS weights 1-100 tie distances exactly, on both sides of
    # the matching; Zipf quotas skew the district sizes.
    node_ties = 0
    for generator, seed, inst in helper_corpus():
        full = compute_center_distances(inst)
        if generator == "random_dimacs_instance":
            node_ties += any(len(set(column)) < len(column) for column in zip(*full))
        outputs = all_solver_outputs(inst)
        expected = outputs["mutual"]
        for name, a in outputs.items():
            assert a == expected, (generator, seed, name)
            assert verify_stable(inst, a, full) is None, (generator, seed, name)
            assert verify_stable(inst, a, member_ball_distances(inst, a)) is None, (generator, seed, name)
    assert node_ties >= 6, node_ties


def test_member_ball_distances_validates_like_verify_stable(p4):
    dists = compute_center_distances(p4)
    for match, dist, message in (
        ([0, 1, 1], [0.0] * 3, "assignment covers 3 of 4 nodes"),
        ([0, 1, 1, 0], [0.0] * 3, "assignment has 3 distances for 4 nodes"),
        ([0, 1, 2, 0], [0.0] * 4, "node 2 assigned to invalid center index 2"),
        ([0, -1, 1, 0], [0.0] * 4, "node 1 assigned to invalid center index -1"),
    ):
        a = Assignment(match=match, dist=dist)
        with pytest.raises(ValueError, match=message):
            verify_stable(p4, a, dists)
        with pytest.raises(ValueError, match=message):
            member_ball_distances(p4, a)
    # A center with no members searches nothing; the quota check fires first.
    a = Assignment(match=[0, 0, 0, 0], dist=[0.0] * 4)
    rows = list(member_ball_distances(p4, a))
    assert rows == [list(dists[0]), [math.inf, 0.0, math.inf, math.inf]]
    assert verify_stable(p4, a, rows) == QuotaViolation(center=0, expected=2, actual=4)


def test_verify_stable_reads_k_rows(p4):
    dists = compute_center_distances(p4)
    a = Assignment(match=[0, 1, 1, 0], dist=[0.0, 0.0, 1.0, 3.0])
    for rows in ([], dists[:1], dists + [dists[0]], dists + dists):
        with pytest.raises(ValueError, match=f"expected 2 distance rows, got {len(rows)}$"):
            verify_stable(p4, a, iter(rows))
    # Quotas are checked before any row is read, so a malformed row does
    # not hide a quota violation.
    a = Assignment(match=[0, 0, 0, 1], dist=[0.0, 1.0, 2.0, 2.0])
    assert verify_stable(p4, a, [dists[0][:-1]]) == QuotaViolation(center=0, expected=2, actual=3)


def test_a_quota_violation_runs_no_search(p4, monkeypatch):
    searches = []
    inner = model.dijkstra
    monkeypatch.setattr(model, "dijkstra", lambda *args: searches.append(args) or inner(*args))
    a = Assignment(match=[0, 0, 0, 1], dist=[0.0, 1.0, 2.0, 2.0])
    assert verify_stable(p4, a, member_ball_distances(p4, a)) == QuotaViolation(0, 2, 3)
    assert searches == []
    a = Assignment(match=[0, 1, 1, 0], dist=[0.0, 0.0, 1.0, 3.0])
    assert verify_stable(p4, a, member_ball_distances(p4, a)) is None
    assert len(searches) == 2


def test_verify_holds_one_member_ball_row_at_a_time():
    # Rows are read one at a time, so the peak is O(n): holding all 64
    # rows of 1024 slots peaked at 0.75 MiB here.
    g = generate_grid(32, 32, jitter_seed=7)
    n = g.node_count
    inst = Instance(g, sample_centers(n, 64, derive_seed(1, 64, 0)), equal_quotas(n, 64))
    a = solve(inst, "nnc")[0]
    tracemalloc.start()
    try:
        verdict = verify_stable(inst, a, member_ball_distances(inst, a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict is None
    assert peak < 0.3 * 2**20


def test_assignment_tsv_roundtrip(p6):
    a = solve(p6, "mutual")[0]
    text = assignment_to_tsv(p6, a)
    lines = text.splitlines()
    assert lines[0] == "node_original_id\tcenter_original_id\tdistance"
    assert len(lines) == 7
    back = parse_assignment_tsv(text, p6.graph, p6.centers)
    assert back == a


def test_assignment_tsv_error_cases(p6):
    a = solve(p6, "mutual")[0]
    text = assignment_to_tsv(p6, a)
    with pytest.raises(ValueError, match="unknown center"):
        parse_assignment_tsv(text, p6.graph, [0, 4])
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(ValueError, match="missing node"):
        parse_assignment_tsv(truncated, p6.graph, p6.centers)
    doubled = text + text.splitlines()[-1] + "\n"
    with pytest.raises(ValueError, match="duplicate node"):
        parse_assignment_tsv(doubled, p6.graph, p6.centers)
    with pytest.raises(ValueError, match="unknown node"):
        parse_assignment_tsv("99\t1\t0.0\n", p6.graph, p6.centers)


def test_assignment_summary_statistics(p6):
    a = solve(p6, "mutual")[0]
    summary = assignment_summary(p6, a)
    assert summary["n"] == 6 and summary["k"] == 2
    first = summary["centers"][0]
    assert first["members"] == 3
    assert first["max_distance"] == 2.0
    assert first["mean_distance"] == 1.0
    json.dumps(summary)  # must be serializable as-is
