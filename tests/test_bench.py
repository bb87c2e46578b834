from __future__ import annotations

import csv
import io

import pytest

from stabledistrict import (
    BenchConfig,
    Instance,
    InstanceError,
    SplitMix64,
    assignment_digest,
    generate_grid,
    run_bench,
    sample_centers,
    solve,
    write_csv,
)
from stabledistrict.bench import CSV_HEADER, derive_seed, jittered_weight
from stabledistrict.cli import main
from stabledistrict.model import PAIR_ENTRY_BYTES


def test_splitmix64_reference_sequence():
    # first outputs of the splitmix64 reference for seed 0 and seed 42
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    rng = SplitMix64(42)
    assert rng.next_u64() == 0xBDD732262FEB6E95


def test_next_below_is_in_range_and_deterministic():
    rng = SplitMix64(123)
    draws = [rng.next_below(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    rng2 = SplitMix64(123)
    assert draws == [rng2.next_below(10) for _ in range(200)]
    with pytest.raises(ValueError):
        rng.next_below(0)


def test_derive_seed_spreads_parts():
    a = derive_seed(7, 2, 0)
    b = derive_seed(7, 2, 1)
    c = derive_seed(7, 4, 0)
    assert len({a, b, c}) == 3
    assert derive_seed(7, 2, 0) == a


def test_sample_centers_contract():
    assert sample_centers(5, 5, 99) == [0, 1, 2, 3, 4]
    first = sample_centers(10, 3, 5)
    assert first == sample_centers(10, 3, 5)
    assert first == sorted(first)
    assert len(set(first)) == 3
    assert all(0 <= c < 10 for c in first)
    other = sample_centers(10, 3, 6)
    assert all(0 <= c < 10 for c in other) and len(set(other)) == 3
    assert first != other  # overwhelmingly likely, pinned by the fixed seeds
    with pytest.raises(InstanceError):
        sample_centers(3, 4, 0)


def test_generate_grid_shape_and_coords():
    g = generate_grid(4, 4)
    assert g.node_count == 16
    assert g.edge_count == 24
    assert g.coords[0] == (0.0, 0.0)
    assert g.coords[5] == (1.0, 1.0)
    path = generate_grid(7, 1)
    assert path.edge_count == 6


def test_grid_jitter_is_dyadic_and_deterministic():
    g1 = generate_grid(5, 4, jitter_seed=9)
    g2 = generate_grid(5, 4, jitter_seed=9)
    assert g1 == g2
    for u in range(g1.node_count):
        for _, w in g1.adjacency[u]:
            assert 1.0 <= w < 2.0
            assert (w * (1 << 20)) == int(w * (1 << 20))  # multiple of 2^-20
    assert g1 != generate_grid(5, 4, jitter_seed=10)


def test_jittered_weight_range():
    rng = SplitMix64(0)
    for _ in range(100):
        w = jittered_weight(rng)
        assert 1.0 <= w < 2.0


def test_bench_reads_grid_specs_and_graph_files(tmp_path, capsys):
    def bench(*argv):
        code = main(["bench", "--k", "2", "--runs", "1", "--algos", "circle", *argv])
        captured = capsys.readouterr()
        return code, captured.out.splitlines()[1:], captured.err

    code, rows, _ = bench("--grid", "3x2")
    assert code == 0 and rows[0].split(",")[:3] == ["grid:3x2", "6", "7"]
    code, rows, _ = bench("--grid", "3x2", "--jitter-seed", "5")
    jittered = rows[0].split(",")
    assert code == 0 and jittered[:3] == ["grid:3x2:jitter:5", "6", "7"]
    grid = tmp_path / "grid.tsv"
    assert main(["generate", "--grid", "3x2", "--jitter-seed", "5", "-o", str(grid)]) == 0
    code, rows, _ = bench(str(grid))
    same = rows[0].split(",")
    assert code == 0 and same[0] == "grid.tsv" and same[8:] == jittered[8:]  # the same graph
    assert bench("--grid", "3") == (1, [], "error: bad grid spec '3' (expected WxH)\n")
    p = tmp_path / "g.gr"
    p.write_text("p sp 2 1\na 1 2 4\n")
    code, rows, _ = bench(str(p))
    assert code == 0 and rows[0].split(",")[:3] == ["g.gr", "2", "1"]


def test_run_bench_shares_center_sets_across_algorithms():
    cfg = BenchConfig(
        k_values=(2, 3),
        runs=2,
        seed=11,
        algorithms=("gs-centers", "circle", "nnc", "mutual"),
    )
    records = run_bench(generate_grid(6, 6), "grid:6x6", cfg)
    assert len(records) == 2 * 2 * 4
    by_cell = {}
    for r in records:
        assert r.outcome == "ok"
        assert r.n == 36 and r.m == 60
        by_cell.setdefault((r.k, r.center_set), set()).add(r.digest)
    # identical assignments (hence digests) for every algorithm in a cell
    assert all(len(digests) == 1 for digests in by_cell.values())


def test_run_bench_records_memory_refusals():
    cap = 10 * PAIR_ENTRY_BYTES  # room for 10 of the 36 x 4 = 144 pairs the table needs
    cfg = BenchConfig(
        k_values=(4,),
        runs=1,
        seed=3,
        algorithms=("gs-centers", "circle", "nnc"),
        memory_cap_bytes=cap,
    )
    records = run_bench(generate_grid(6, 6), "grid:6x6", cfg)
    outcomes = {r.algorithm: r.outcome for r in records}
    assert outcomes["gs-centers"] == "refused-memory"
    assert outcomes["circle"] == "ok"
    assert outcomes["nnc"] == "ok"
    refused = next(r for r in records if r.outcome == "refused-memory")
    assert refused.digest == "" and refused.time_ms is None and refused.work is None


def test_run_bench_rejects_oversized_k():
    cfg = BenchConfig(k_values=(10,), runs=1)
    with pytest.raises(InstanceError):
        run_bench(generate_grid(3, 3), "grid:3x3", cfg)


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(k_values=(), runs=1)
    with pytest.raises(ValueError):
        BenchConfig(k_values=(1,), runs=0)
    with pytest.raises(ValueError):
        BenchConfig(k_values=(1,), algorithms=("bogus",))
    with pytest.raises(ValueError, match="^unknown algorithm 'bogus'$"):
        solve(Instance(generate_grid(2, 2), [0], [4]), "bogus")


def test_csv_output_format():
    cfg = BenchConfig(k_values=(2,), runs=1, algorithms=("circle",))
    graph = generate_grid(4, 4)
    # A name holding a comma, a quote or a line break is quoted; a plain one is written bare.
    for name in ("grid:4x4", "a,b.tsv", '"say" hi.tsv', "cr\rlf\n.tsv"):
        buf = io.StringIO()
        write_csv(run_bench(graph, name, cfg), buf)
        header, row = csv.reader(io.StringIO(buf.getvalue(), newline=""))
        assert ",".join(header) == CSV_HEADER
        assert len(row) == len(header)
        assert row[0] == name
        assert row[6] == "circle"
        assert row[9] == "ok"
    assert buf.getvalue().startswith(f'{CSV_HEADER}\n"cr\rlf\n.tsv",16,24,2,0,0,circle,')
    assert buf.getvalue().endswith("\n") and buf.getvalue().count("\n") == 3


def test_assignment_digest_is_stable():
    from stabledistrict import Assignment

    a = Assignment(match=[0, 1, 0], dist=[0.0, 0.0, 1.0])
    assert assignment_digest(a) == assignment_digest(Assignment(match=[0, 1, 0], dist=[9.0, 9.0, 9.0]))
    assert assignment_digest(a) != assignment_digest(Assignment(match=[0, 1, 1], dist=a.dist))
    assert len(assignment_digest(a)) == 16
