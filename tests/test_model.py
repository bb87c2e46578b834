from __future__ import annotations

import itertools
import json

import pytest

from stabledistrict import (
    Assignment,
    BlockingPair,
    Instance,
    InstanceError,
    QuotaViolation,
    Score,
    assignment_summary,
    assignment_to_tsv,
    compute_center_distances,
    equal_quotas,
    parse_assignment_tsv,
    solve_mutual_closest,
    verify_stable,
)

from helpers import brute_force_blocking_pairs, path_graph, random_grid_instance


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
    a = Assignment(match=[0, 1, 1, 0], dist=[0.0, 0.0, 1.0, 2.0])
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


def test_verify_stable_matches_brute_force_on_random_assignments():
    from stabledistrict.bench import SplitMix64

    for seed in range(25):
        inst = random_grid_instance(seed, max_side=6)
        n = inst.graph.node_count
        dists = compute_center_distances(inst)
        rng = SplitMix64(seed)
        # random quota-preserving assignment: shuffle the stable one
        match = list(solve_mutual_closest(inst).match)
        for _ in range(4):
            u = rng.next_below(n)
            v = rng.next_below(n)
            match[u], match[v] = match[v], match[u]
        a = Assignment(match=match, dist=[dists[c][u] for u, c in enumerate(match)])
        verdict = verify_stable(inst, a, dists)
        pairs = brute_force_blocking_pairs(inst, match, dists)
        if verdict is None:
            assert pairs == []
        else:
            assert isinstance(verdict, BlockingPair)
            d, u, c = pairs[0]
            assert (u, c) == (verdict.node, verdict.center)
            assert d == verdict.pair_dist


def test_assignment_tsv_roundtrip(p6):
    a = solve_mutual_closest(p6)
    text = assignment_to_tsv(p6, a)
    lines = text.splitlines()
    assert lines[0] == "node_original_id\tcenter_original_id\tdistance"
    assert len(lines) == 7
    back = parse_assignment_tsv(text, p6.graph, p6.centers)
    assert back == a


def test_assignment_tsv_error_cases(p6):
    a = solve_mutual_closest(p6)
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
    a = solve_mutual_closest(p6)
    summary = assignment_summary(p6, a)
    assert summary["n"] == 6 and summary["k"] == 2
    first = summary["centers"][0]
    assert first["members"] == 3
    assert first["max_distance"] == 2.0
    assert first["mean_distance"] == 1.0
    json.dumps(summary)  # must be serializable as-is
