"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Criterion 4 is the one remaining failure: it asks the
nodes-side nearest-neighbor chain to run in time independent of k, which
needs a dynamic nearest-neighbor structure this package leaves out; its
passing `*_phenomenon` companion shows the contrast with Gale-Shapley that
does hold. Criteria 5 and 6 gate exact settle counts derived from the
definition of circle growing; the derivations sit beside the assertions.
"""

from __future__ import annotations

import time

import pytest

from stabledistrict import (
    Assignment,
    BenchConfig,
    Instance,
    compute_center_distances,
    equal_quotas,
    generate_grid,
    run_bench,
    verify_stable,
)
from stabledistrict.bench import SplitMix64, derive_seed, sample_centers
from stabledistrict.circle import circle_growing_run
from stabledistrict.model import PAIR_ENTRY_BYTES
from stabledistrict.nnc import mutual_closest_run
from stabledistrict.cli import main as cli_main

from helpers import (
    N_EQUIVALENCE_CASES,
    check_mutual_closest_steps,
    least_squares_slope,
    mutual_match_order,
    random_sparse_instance,
    spearman,
)

SWEEP_K = (2, 4, 8, 16, 32, 64, 128, 256, 512)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def scaling_sweep():
    """Shared 100x100 sweep for the GS-scaling and NNC-flatness criteria."""
    cfg = BenchConfig(
        k_values=SWEEP_K,
        runs=5,
        seed=1,
        algorithms=("gs-centers", "nnc"),
    )
    started = time.perf_counter()
    records = run_bench(generate_grid(100, 100), "grid:100x100", cfg)
    elapsed = time.perf_counter() - started
    means: dict[tuple[str, int], float] = {}
    for algo in ("gs-centers", "nnc"):
        for k in SWEEP_K:
            times = [
                r.time_ms for r in records if r.algorithm == algo and r.k == k
            ]
            assert len(times) == 5 and all(t is not None for t in times)
            means[(algo, k)] = sum(times) / len(times)
    return means, elapsed


def test_criterion_1_all_solvers_agree(equivalence_suite):
    results, elapsed = equivalence_suite
    mismatches = []
    for i, inst, assignments in results:
        reference = assignments["mutual"]
        for name, a in assignments.items():
            if a.match != reference.match or a.dist != reference.dist:
                mismatches.append((i, name))
    ok = not mismatches and len(results) == N_EQUIVALENCE_CASES
    _report(
        1,
        ok,
        f"{len(results)} instances x 5 solvers element-wise identical"
        f" ({elapsed:.1f}s)" if ok else f"mismatches: {mismatches[:5]}",
    )
    assert ok, f"solver outputs diverge: {mismatches[:5]}"


def test_criterion_2_stability_and_perturbations(equivalence_suite):
    results, _ = equivalence_suite
    perturbed = 0
    detected = 0
    for i, inst, assignments in results:
        dists = compute_center_distances(inst)
        verdict = verify_stable(inst, assignments["circle"], dists)
        assert verdict is None, f"instance {i}: solver output not stable: {verdict}"
        if inst.k < 2:
            continue
        rng = SplitMix64(derive_seed(i, 0x77))
        n = inst.graph.node_count
        base = assignments["circle"]
        for _ in range(3):
            u = rng.next_below(n)
            v = rng.next_below(n)
            while base.match[v] == base.match[u]:
                v = rng.next_below(n)
            match = list(base.match)
            match[u], match[v] = match[v], match[u]
            mutated = Assignment(
                match=match, dist=[dists[c][x] for x, c in enumerate(match)]
            )
            perturbed += 1
            if verify_stable(inst, mutated, dists) is not None:
                detected += 1
    rate = detected / perturbed
    ok = rate >= 0.95 and detected == perturbed  # every swap changes the matching
    _report(2, ok, f"solver outputs stable; {detected}/{perturbed} perturbations rejected")
    assert rate >= 0.95
    assert detected == perturbed


def test_criterion_3_gs_scales_with_k(scaling_sweep):
    means, elapsed = scaling_sweep
    xs = [float(k) for k in SWEEP_K]
    ys = [means[("gs-centers", k)] for k in SWEEP_K]
    slope = least_squares_slope(xs, ys)
    ratio = means[("gs-centers", 512)] / means[("gs-centers", 2)]
    ok = slope > 0 and ratio >= 10.0
    _report(
        3,
        ok,
        f"GS_C slope {slope:.3f} ms/center, time(512)/time(2) = {ratio:.0f}x"
        f" (sweep {elapsed:.0f}s)",
    )
    assert slope > 0
    assert ratio >= 10.0


def test_criterion_4_nnc_flatness(scaling_sweep):
    means, _ = scaling_sweep
    times = [means[("nnc", k)] for k in SWEEP_K]
    ratio = max(times) / min(times)
    ok = ratio <= 2.5
    _report(4, ok, f"NNC max/min mean-time ratio {ratio:.1f} (target <= 2.5)")
    assert ok, (
        f"NNC mean-time ratio {ratio:.1f} exceeds 2.5. True k-independence needs"
        " a sublinear-per-operation dynamic nearest-neighbor structure, which is"
        " deliberately not part of this package; with search-based oracles the"
        " nodes-side work is bounded below by the sum over centers of the ball"
        " reaching their farthest member, which on this sweep grows from ~1.59n"
        " (k=2) to ~24.7n (k=512). See the companion contrast test for the"
        " qualitative phenomenon this check is after."
    )


def test_criterion_4_phenomenon_nnc_grows_far_slower_than_gs(scaling_sweep):
    means, _ = scaling_sweep
    gs_growth = means[("gs-centers", 512)] / means[("gs-centers", 2)]
    nnc_growth = means[("nnc", 512)] / means[("nnc", 2)]
    ok = nnc_growth * 10 <= gs_growth
    _report(
        4,
        ok,
        f"supplementary contrast: NNC grows {nnc_growth:.1f}x vs GS {gs_growth:.0f}x"
        " over the same sweep",
    )
    assert ok


CIRCLE_K = (2, 8, 32, 128)


@pytest.fixture(scope="module")
def circle_runs_by_k():
    """Circle runs on ten seeded equal-quota center sets per k, unit 100x100 grid."""
    g = generate_grid(100, 100)
    n = g.node_count
    runs = {}
    for k in CIRCLE_K:
        runs[k] = []
        for s in range(10):
            centers = sample_centers(n, k, derive_seed(2, k, s))
            inst = Instance(g, centers, equal_quotas(n, k))
            runs[k].append((inst, circle_growing_run(inst)))
    return runs


def _mean_settled(runs) -> float:
    return sum(run.settled_total for _, run in runs) / len(runs)


def _ball_settle_count(inst: Instance, match: list[int], dists) -> int:
    """Sum over centers c of |{v : (d_c(v), v) <= (d_c(w), w)}|, w c's worst member."""
    worst = [(-1.0, -1)] * inst.k
    for v, c in enumerate(match):
        worst[c] = max(worst[c], (dists[c][v], v))
    return sum(
        1
        for c in range(inst.k)
        for v, d in enumerate(dists[c])
        if (d, v) <= worst[c]
    )


def test_criterion_5_circle_settled_total_trend(circle_runs_by_k):
    n = 100 * 100
    # With positive weights instance c pops nodes in (dist, node) order and
    # halts when it matches its worst member w, so it settles exactly the
    # ball of nodes scoring at or below w: settled_total = sum_c
    # |ball(c, w_c)|. The worst members are
    # fixed by the unique stable matching, so the total belongs to the
    # instance, not to the solver, and on a fixed graph it rises with k
    # (every added district's ball reaches past its neighbours before its
    # quota fills); no correct circle solver makes it fall. Check the
    # identity against k independent full Dijkstras on one center set per k.
    identity = []
    for k in CIRCLE_K:
        inst, run = circle_runs_by_k[k][0]
        derived = _ball_settle_count(
            inst, run.assignment.match, compute_center_distances(inst)
        )
        identity.append((k, run.settled_total, derived))
    # The saving over Gale-Shapley is what shrinks with k: gs-centers builds
    # its preference lists from k full Dijkstras, k*n settles, while each
    # circle ball only reaches its district's worst member, whose radius
    # shrinks with the districts.
    shares = [_mean_settled(circle_runs_by_k[k]) / (k * n) for k in CIRCLE_K]
    identity_ok = all(measured == derived for _, measured, derived in identity)
    falling = all(a > b for a, b in zip(shares, shares[1:]))
    ok = identity_ok and falling
    _report(
        5,
        ok,
        "settled_total vs derived ball sum "
        + ", ".join(f"k={k} {m}/{d}" for k, m, d in identity)
        + f"; mean share of k*n {[f'{x:.2f}' for x in shares]} for k={list(CIRCLE_K)}",
    )
    assert identity_ok, identity
    assert falling, shares


def test_criterion_5_phenomenon_per_instance_work_decreases(circle_runs_by_k):
    per_instance = [_mean_settled(circle_runs_by_k[k]) / k for k in CIRCLE_K]
    rho = spearman(per_instance, [float(k) for k in CIRCLE_K])
    ok = rho <= 0.0
    _report(
        5,
        ok,
        f"supplementary: per-instance settles {[f'{m:.0f}' for m in per_instance]}"
        f" decrease with k (Spearman {rho:+.2f})",
    )
    assert ok


def test_criterion_6_path_worst_case():
    # P_n with unit edges, centers at nodes 0..k-1 and equal quotas q = n/k
    # (q >= k). Each center first matches itself. After that the leftmost
    # unmatched node and the highest-index open center are mutually closest,
    # so center k-1 takes the next q-1 nodes, center k-2 the q-1 after those,
    # and so on: center j's worst member is p_j = (k-1) + (k-j)(q-1), with
    # p_0 = n-1. Circle growing settles for center j every v with
    # (|v-j|, v) <= (p_j-j, p_j): nodes j..p_j and, as j <= p_j-j, all j
    # nodes left of it, p_j + 1 in all. Summed over j:
    #   k^2 + (q-1)k(k+1)/2 = n(k+1)/2 + k(k-1)/2,
    # Theta(nk): each node is settled by about (k+1)/2 centers. k=2 is the
    # P1000 centers (0, 1) case, 1501 = 1.5n + 1; the 2n regime needs a
    # blocking center that stays open, as in the companion test.
    n = 1000
    g = generate_grid(n, 1)
    counts = []
    for k in (2, 4, 8):
        run = circle_growing_run(Instance(g, list(range(k)), [n // k] * k))
        counts.append((k, run.settled_total, (n * (k + 1) + k * (k - 1)) // 2))
    ok = all(measured == derived for _, measured, derived in counts)
    _report(
        6,
        ok,
        "P1000 centers 0..k-1, quotas n/k: settled_total "
        + ", ".join(f"k={k} {m} (derived {d})" for k, m, d in counts),
    )
    assert ok, counts


def test_criterion_6_phenomenon_degenerate_regime():
    n = 1000
    g = generate_grid(n, 1)
    run = circle_growing_run(Instance(g, [0, 1], [2, n - 2]))
    ok = run.settled_total >= 1.8 * n
    _report(
        6,
        ok,
        f"supplementary: quotas (2, {n - 2}) drive settled_total to"
        f" {run.settled_total} >= 1.8n",
    )
    assert ok


def test_criterion_7_memory_refusal_is_a_clean_outcome():
    cap = 10**6 * PAIR_ENTRY_BYTES  # one million materialized pair entries
    cfg = BenchConfig(
        k_values=(512,),
        runs=1,
        seed=4,
        algorithms=("gs-centers", "circle", "nnc"),
        memory_cap_bytes=cap,
    )
    records = run_bench(generate_grid(100, 100), "grid:100x100", cfg)
    outcomes = {r.algorithm: r.outcome for r in records}
    gs = next(r for r in records if r.algorithm == "gs-centers")
    ok = (
        outcomes["gs-centers"] == "refused-memory"
        and outcomes["circle"] == "ok"
        and outcomes["nnc"] == "ok"
        and gs.digest == ""
        and records[1].digest == records[2].digest != ""
    )
    _report(7, ok, f"n=10^4, k=512, cap 10^6 pair entries: {outcomes}")
    assert ok, outcomes


def test_criterion_8_cli_byte_determinism(tmp_path, capsys):
    graph = tmp_path / "g.tsv"
    assert cli_main(["generate", "--grid", "20x20", "--jitter-seed", "8", "-o", str(graph)]) == 0
    graph2 = tmp_path / "g2.tsv"
    assert cli_main(["generate", "--grid", "20x20", "--jitter-seed", "8", "-o", str(graph2)]) == 0

    pairs = []
    for run_id in ("x", "y"):
        tsv = tmp_path / f"a_{run_id}.tsv"
        svg = tmp_path / f"m_{run_id}.svg"
        csv = tmp_path / f"b_{run_id}.csv"
        assert cli_main([
            "solve", "--algo", "circle", "--random-centers", "7", "--seed", "13",
            "-o", str(tsv), str(graph),
        ]) == 0
        assert cli_main([
            "render", "--assignment", str(tsv), "-o", str(svg), str(graph),
        ]) == 0
        assert cli_main([
            "bench", "--k", "2,4", "--runs", "2", "--algos", "circle,nnc",
            "--seed", "3", "-o", str(csv), "--grid", "20x20",
        ]) == 0
        pairs.append((tsv.read_bytes(), svg.read_bytes(), csv.read_text()))
    (tsv1, svg1, csv1), (tsv2, svg2, csv2) = pairs

    def strip_times(csv_text: str) -> list[str]:
        rows = []
        for line in csv_text.splitlines()[1:]:
            fields = line.split(",")
            fields[7] = ""  # time_ms: the one measured, nondeterministic field
            rows.append(",".join(fields))
        return rows

    ok = (
        graph.read_bytes() == graph2.read_bytes()
        and tsv1 == tsv2
        and svg1 == svg2
        and strip_times(csv1) == strip_times(csv2)
    )
    _report(
        8,
        ok,
        "generate/solve/render byte-identical; bench CSV identical apart from"
        " the wall-clock time_ms field",
    )
    assert ok


def test_criterion_9_selected_pairs_are_mutual_closest():
    checked_instances = 0
    checked_steps = 0
    for seed in range(1000):
        inst = random_sparse_instance(seed, max_n=40)
        run = mutual_closest_run(inst)
        order = mutual_match_order(run.assignment)
        check_mutual_closest_steps(inst, order)  # raises on any violation
        checked_instances += 1
        checked_steps += len(order)
    ok = checked_instances == 1000
    _report(
        9,
        ok,
        f"{checked_instances} instances, {checked_steps} matches verified"
        " mutual-closest by exhaustive scan",
    )
    assert ok
