from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import stabledistrict
from stabledistrict import Instance, cli, compute_center_distances, equal_quotas, parse_tsv, sample_centers
from stabledistrict.cli import main


@pytest.fixture
def grid_tsv(tmp_path):
    path = tmp_path / "grid.tsv"
    assert main(["generate", "--grid", "6x6", "--jitter-seed", "4", "-o", str(path)]) == 0
    return path


def run(argv):
    return main(argv)


def test_generate_grid_counts(tmp_path, capsys):
    assert run(["generate", "--grid", "4x4"]) == 0
    out = capsys.readouterr().out
    edges = [l for l in out.splitlines() if l and not l.startswith("#")]
    nodes = {int(f) for l in edges for f in l.split("\t")[:2]}
    assert len(nodes) == 16
    assert len(edges) == 24
    assert sum(1 for l in out.splitlines() if l.startswith("#node ")) == 16


def test_solve_writes_assignment_and_summary(grid_tsv, tmp_path, capsys):
    out = tmp_path / "a.tsv"
    summary = tmp_path / "a.json"
    code = run([
        "solve", "--algo", "circle", "--random-centers", "6", "--seed", "1",
        "--quotas", "equal", "-o", str(out), "--summary", str(summary), str(grid_tsv),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "n=36" in err and "k=6" in err and "algorithm=circle" in err
    rows = out.read_text().splitlines()
    assert rows[0] == "node_original_id\tcenter_original_id\tdistance"
    assert len(rows) == 37
    centers = {r.split("\t")[1] for r in rows[1:]}
    assert len(centers) == 6
    doc = json.loads(summary.read_text())
    assert doc["n"] == 36 and doc["k"] == 6
    assert sum(c["members"] for c in doc["centers"]) == 36


def test_all_algorithms_produce_identical_files(grid_tsv, tmp_path):
    outputs = []
    for algo in ("gs-centers", "gs-nodes", "circle", "nnc", "mutual"):
        out = tmp_path / f"{algo}.tsv"
        assert run([
            "solve", "--algo", algo, "--random-centers", "5", "--seed", "7",
            "-o", str(out), str(grid_tsv),
        ]) == 0
        outputs.append(out.read_bytes())
    assert all(b == outputs[0] for b in outputs)


def test_solve_is_byte_deterministic(grid_tsv, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    argv = ["solve", "--algo", "nnc", "--random-centers", "4", "--seed", "9"]
    assert run(argv + ["-o", str(a), str(grid_tsv)]) == 0
    assert run(argv + ["-o", str(b), str(grid_tsv)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_quota_file_deficit_exits_2(grid_tsv, tmp_path, capsys):
    quotas = tmp_path / "q.txt"
    quotas.write_text("\n".join(["7"] * 5) + "\n")  # sums to 35, not 36
    code = run([
        "solve", "--algo", "circle", "--random-centers", "5", "--seed", "1",
        "--quotas", str(quotas), str(grid_tsv),
    ])
    assert code == 2
    assert "deficit 1" in capsys.readouterr().err


def test_solve_memory_refusal_exits_3(grid_tsv, capsys):
    code = run([
        "solve", "--algo", "gs-centers", "--random-centers", "6", "--seed", "1",
        "--memory-cap", "10", str(grid_tsv),
    ])
    assert code == 3
    assert "memory cap" in capsys.readouterr().err


def test_no_memory_cap_lifts_the_cap_that_memory_cap_sets(grid_tsv, capsys):
    solve = ["solve", "--random-centers", "6", "--seed", "1", str(grid_tsv)]
    assert run(solve + ["--algo", "circle"]) == 0
    expected = capsys.readouterr().out
    for algo, name in (("gs-centers", "gale-shapley"), ("mutual", "mutual")):
        assert run(solve + ["--algo", algo, "--memory-cap", "10"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {name}: estimated ")
        assert run(solve + ["--algo", algo, "--no-memory-cap"]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", [
    ["solve", "--algo", "gs-centers", "--random-centers", "6"],
    ["bench", "--k", "2", "--runs", "1", "--algos", "gs-centers"],
])
def test_memory_cap_flags_are_checked_as_usage(grid_tsv, capsys, monkeypatch, command):
    solves = []
    monkeypatch.setattr(cli.bench_mod, "solve", lambda *args, **kw: solves.append(args))
    monkeypatch.setattr(cli.bench_mod, "run_bench", lambda *args, **kw: solves.append(args))
    for flags, message in (
        (["--memory-cap", "-5"], "error: argument --memory-cap: expected a whole number of bytes, got '-5'\n"),
        (["--memory-cap", "10", "--no-memory-cap"],
         "error: argument --no-memory-cap: not allowed with argument --memory-cap\n"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(command + flags + [str(grid_tsv)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message
    assert not solves


def test_solve_outputs_name_distinct_files_and_one_stdout(grid_tsv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    solves = []
    monkeypatch.setattr(cli.bench_mod, "solve", lambda *args, **kw: solves.append(args))
    solve = ["solve", "--algo", "circle", "--random-centers", "2", "--seed", "3", str(grid_tsv)]
    for outputs, message in (
        (["-o", "b.tsv", "--summary", "b.tsv"], "-o and --summary both write to b.tsv"),
        (["-o", "a.tsv", "--trace", "./a.tsv"], "-o and --trace both write to ./a.tsv"),
        (["-o", "a.tsv", "--summary", "s.json", "--trace", "s.json"], "--summary and --trace both write to s.json"),
        (["--summary", "-"], "--summary - needs -o FILE: the assignment goes to stdout without it"),
        (["-o", "-", "--summary", "-"], "--summary - needs -o FILE: the assignment goes to stdout without it"),
        (["-o", "a.tsv", "--summary", "-", "--trace", "-"], "--summary and --trace both write to stdout"),
    ):
        assert run(solve + outputs) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
    assert not solves
    assert os.listdir(tmp_path) == ["grid.tsv"]


def test_summary_dash_goes_to_stdout_when_the_assignment_goes_to_a_file(grid_tsv, tmp_path, capsys):
    solve = ["solve", "--algo", "circle", "--random-centers", "2", "--seed", "3", str(grid_tsv)]
    assert run(solve + ["-o", str(tmp_path / "a.tsv"), "--summary", str(tmp_path / "s.json")]) == 0
    capsys.readouterr()
    assert run(solve + ["-o", str(tmp_path / "b.tsv"), "--summary", "-"]) == 0
    assert capsys.readouterr().out == (tmp_path / "s.json").read_text()
    assert (tmp_path / "b.tsv").read_text() == (tmp_path / "a.tsv").read_text()


@pytest.mark.parametrize("flag", ["--centers", "--quotas"])
def test_a_bad_integer_line_names_its_file_and_line(grid_tsv, tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_text("# ids\n0\n\nx\n")
    instance = ["--random-centers", "2"] if flag == "--quotas" else []
    assert run(["solve", "--algo", "circle", *instance, flag, str(bad), str(grid_tsv)]) == 1
    assert capsys.readouterr().err == f"error: {bad} line 4: expected an integer, got 'x'\n"


@pytest.mark.parametrize("which", ["graph", "co", "centers", "quotas", "verify-assignment", "render-assignment"])
def test_an_undecodable_input_is_named_by_its_path(tmp_path, capsys, which):
    gr, co = tmp_path / "g.gr", tmp_path / "g.co"
    gr.write_text("p sp 3 2\na 1 2 1\na 2 3 1\n")
    co.write_text("v 1 0 0\nv 2 1 0\nv 3 2 0\n")
    centers, quotas, assignment = tmp_path / "c.txt", tmp_path / "q.txt", tmp_path / "a.tsv"
    centers.write_text("2\n")
    quotas.write_text("3\n")
    instance = ["--centers", str(centers), "--quotas", str(quotas), str(gr), str(co)]
    assert run(["solve", "--algo", "circle", "-o", str(assignment)] + instance) == 0
    argv = {
        "verify-assignment": ["verify", "--assignment", str(assignment)] + instance,
        "render-assignment": ["render", "--assignment", str(assignment), "-o", str(tmp_path / "m.svg"), str(gr), str(co)],
    }.get(which, ["solve", "--algo", "circle"] + instance)
    bad = {"graph": gr, "co": co, "centers": centers, "quotas": quotas}.get(which, assignment)
    bad.write_bytes(b"\xff\xfe\x00")
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    assert not (tmp_path / "m.svg").exists()


@pytest.mark.parametrize("files, output, message", [
    ({"g.tsv": "0\t1\t1.0\n1\t2\t1.0\n#node 0 nan 0\n#node 1 1 0\n#node 2 2 0\n"}, "m.svg",
     "line 3: nonfinite coordinates nan 0"),
    ({"g.tsv": "0\t1\t1.0\n1\t2\t1.0\n#node 0 0 0\n#node 1 1 inf\n#node 2 2 0\n"}, "m.geojson",
     "line 4: nonfinite coordinates 1 inf"),
    ({"g.gr": "p sp 3 2\na 1 2 1\na 2 3 1\n", "g.co": "v 1 nan 0\nv 2 1 0\nv 3 2 0\n"}, "m.svg",
     "line 1: nonfinite coordinates nan 0"),
], ids=["tsv-nan-svg", "tsv-inf-geojson", "dimacs-nan-svg"])
def test_render_refuses_a_nonfinite_coordinate(tmp_path, capsys, files, output, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    lo = 0 if "g.tsv" in files else 1  # the first node id: 0 in these TSVs, 1 in DIMACS
    assignment = tmp_path / "a.tsv"
    assignment.write_text("".join(f"{lo + i}\t{lo + 1}\t{abs(i - 1)}.0\n" for i in range(3)))
    graph = [str(tmp_path / name) for name in files]
    assert run(["render", "--assignment", str(assignment), "-o", str(tmp_path / output)] + graph) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / output).exists()


def test_generate_refuses_a_grid_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "one.tsv"
    message = "error: grid 1x1 has a node without edges, which a TSV edge list cannot express\n"
    assert run(["generate", "--grid", "1x1", "-o", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert run(["generate", "--grid", "1x1"]) == 1
    assert capsys.readouterr() == ("", message)
    assert run(["bench", "--grid", "1x1", "--k", "1", "--runs", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5


def test_unwritable_solve_output_fails_before_the_solve(grid_tsv, tmp_path, capsys, monkeypatch):
    solves = []
    monkeypatch.setattr(cli.bench_mod, "solve", lambda *args, **kw: solves.append(args))
    fresh = tmp_path / "fresh.tsv"
    argv = ["solve", "--algo", "circle", "--random-centers", "6", "--seed", "1", str(grid_tsv)]
    for outputs in (["-o", str(tmp_path)], ["-o", str(fresh), "--summary", str(tmp_path)]):
        assert run(argv + outputs) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not solves
    assert not fresh.exists()


def test_failed_solve_leaves_its_outputs_as_they_were(grid_tsv, tmp_path, capsys):
    kept = tmp_path / "kept.tsv"
    kept.write_text("old bytes\n")
    fresh = tmp_path / "fresh.json"
    solve = ["solve", "--algo", "gs-centers", "--random-centers", "6", "--seed", "1", str(grid_tsv)]
    argv = solve + ["-o", str(kept), "--summary", str(fresh)]
    assert run(argv + ["--memory-cap", "10"]) == 3
    assert run(argv + ["--quotas", str(tmp_path / "none.txt")]) == 1
    quotas = tmp_path / "q.txt"
    quotas.write_text("1\n" * 6)
    assert run(argv + ["--quotas", str(quotas)]) == 2
    capsys.readouterr()
    assert kept.read_text() == "old bytes\n"
    assert not fresh.exists()
    assert run(argv) == 0
    assert kept.read_text().startswith("node_original_id\t") and fresh.exists()


def test_solve_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p sp 2 1\na 1 5 1\n")
    code = run(["solve", "--algo", "circle", "--random-centers", "1", str(bad)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_disconnected_needs_largest_component_flag(tmp_path, capsys):
    path = tmp_path / "two.tsv"
    path.write_text("0\t1\t1.0\n2\t3\t1.0\n")
    argv = ["solve", "--algo", "circle", "--random-centers", "1", "--seed", "0"]
    assert run(argv + [str(path)]) == 2
    capsys.readouterr()
    out = tmp_path / "a.tsv"
    assert run(argv + ["--largest-component", "-o", str(out), str(path)]) == 0
    err = capsys.readouterr().err
    assert "kept 2 of 4 nodes" in err
    assert len(out.read_text().splitlines()) == 3


def test_verify_roundtrip_stable(grid_tsv, tmp_path, capsys):
    out = tmp_path / "a.tsv"
    common = ["--random-centers", "4", "--seed", "2", str(grid_tsv)]
    assert run(["solve", "--algo", "gs-nodes", "-o", str(out)] + common) == 0
    capsys.readouterr()
    code = run(["verify", "--assignment", str(out)] + common)
    assert code == 0
    assert capsys.readouterr().out.strip() == "STABLE"


def test_verify_detects_hand_corrupted_swap(tmp_path, capsys):
    graph = tmp_path / "p4.tsv"
    graph.write_text("0\t1\t1.0\n1\t2\t1.0\n2\t3\t1.0\n")
    centers = tmp_path / "centers.txt"
    centers.write_text("0\n1\n")
    # stable is {0,3}->c0, {1,2}->c1; swap nodes 1 and 3 across districts
    bad = tmp_path / "bad.tsv"
    bad.write_text(
        "node_original_id\tcenter_original_id\tdistance\n"
        "0\t0\t0.0\n1\t0\t1.0\n2\t1\t1.0\n3\t1\t2.0\n"
    )
    code = run(["verify", "--assignment", str(bad), "--centers", str(centers), str(graph)])
    assert code == 4
    out = capsys.readouterr().out
    assert "blocking pair" in out
    assert "node 1 and center 1" in out


def test_verify_quota_violation_exits_4(tmp_path, capsys):
    graph = tmp_path / "p4.tsv"
    graph.write_text("0\t1\t1.0\n1\t2\t1.0\n2\t3\t1.0\n")
    centers = tmp_path / "centers.txt"
    centers.write_text("0\n1\n")
    bad = tmp_path / "bad.tsv"
    bad.write_text(
        "node_original_id\tcenter_original_id\tdistance\n"
        "0\t0\t0.0\n1\t0\t1.0\n2\t0\t2.0\n3\t1\t2.0\n"
    )
    code = run(["verify", "--assignment", str(bad), "--centers", str(centers), str(graph)])
    assert code == 4
    assert "quota violation" in capsys.readouterr().out


def test_verify_prints_the_full_row_verdict(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "grid.tsv"
    assert run(["generate", "--grid", "20x20", "--jitter-seed", "7", "-o", str(graph)]) == 0
    common = ["--random-centers", "12", "--seed", "3", str(graph)]
    solved = tmp_path / "solved.tsv"
    assert run(["solve", "--algo", "circle", "-o", str(solved)] + common) == 0
    header, *lines = solved.read_text().splitlines()
    rows = [line.split("\t") for line in lines]
    other = next(i for i, r in enumerate(rows) if r[1] != rows[0][1])
    swapped = [list(r) for r in rows]
    swapped[0][1], swapped[other][1] = rows[other][1], rows[0][1]
    # Node 0's whole district moves to another center, which leaves one empty.
    broken = [[r[0], rows[other][1] if r[1] == rows[0][1] else r[1], r[2]] for r in rows]
    # Each row claims its true distance (grid ids are dense ids), so the
    # verdicts come from the matching alone.
    g = parse_tsv(graph.read_text())
    centers = sample_centers(g.node_count, 12, 3)
    full = compute_center_distances(Instance(g, centers, equal_quotas(g.node_count, 12)))
    true = dict(zip((str(c) for c in centers), full))
    paths = [solved]
    for name, table in (("swapped.tsv", swapped), ("broken.tsv", broken)):
        for r in table:
            r[2] = repr(true[r[1]][int(r[0])])
        path = tmp_path / name
        path.write_text("\n".join([header] + ["\t".join(r) for r in table]) + "\n")
        paths.append(path)

    def verify_all():
        results = []
        for path in paths:
            capsys.readouterr()
            code = run(["verify", "--assignment", str(path)] + common)
            results.append((code, capsys.readouterr().out))
        return results

    bounded = verify_all()
    monkeypatch.setattr(cli, "member_ball_distances", lambda inst, a: compute_center_distances(inst))
    assert bounded == verify_all()
    assert bounded[0] == (0, "STABLE\n")
    assert bounded[1][0] == 4 and bounded[1][1].startswith("UNSTABLE blocking pair: node ")
    assert bounded[2][0] == 4 and bounded[2][1].startswith("UNSTABLE quota violation: center ")


def test_verify_checks_the_distance_column(tmp_path, capsys):
    graph = tmp_path / "grid.tsv"
    assert run(["generate", "--grid", "8x8", "--jitter-seed", "3", "-o", str(graph)]) == 0
    common = ["--random-centers", "4", str(graph)]
    solved = tmp_path / "solved.tsv"
    assert run(["solve", "--algo", "circle", "-o", str(solved)] + common) == 0
    header, *lines = solved.read_text().splitlines()
    rows = [line.split("\t") for line in lines]
    first = rows[5]
    rows[5] = rows[5][:2] + ["0.5"]
    rows[40] = rows[40][:2] + ["123.0"]
    doctored = tmp_path / "doctored.tsv"
    doctored.write_text("\n".join([header] + ["\t".join(r) for r in rows]) + "\n")
    capsys.readouterr()
    assert run(["verify", "--assignment", str(solved)] + common) == 0
    assert capsys.readouterr().out == "STABLE\n"
    assert run(["verify", "--assignment", str(doctored)] + common) == 4
    assert capsys.readouterr().out == (
        f"UNSTABLE distance mismatch: node 5 is assigned to center {first[1]} at distance 0.5,"
        f" but the true distance is {first[2]}\n"
    )


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_nonfinite_distance_is_refused_by_its_row(grid_tsv, tmp_path, capsys, command, value):
    # A NaN or infinite distance is unreadable input, not a mismatch to
    # verify; render would otherwise write it into GeoJSON, which has no NaN.
    out = tmp_path / "a.tsv"
    instance = ["--random-centers", "3", "--seed", "5", str(grid_tsv)]
    assert run(["solve", "--algo", "circle", "-o", str(out)] + instance) == 0
    lines = out.read_text().splitlines()
    lines[3] = "\t".join(lines[3].split("\t")[:2] + [value])
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    geojson = tmp_path / "m.geojson"
    argv = {"verify": ["verify", "--assignment", str(out)] + instance,
            "render": ["render", "--assignment", str(out), "-o", str(geojson), str(grid_tsv)]}[command]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: assignment row 4: nonfinite distance {value}\n"
    assert not geojson.exists()


def test_verify_id_mismatch_exits_1(grid_tsv, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("node_original_id\tcenter_original_id\tdistance\n99\t0\t0.0\n")
    code = run([
        "verify", "--assignment", str(bad),
        "--random-centers", "2", "--seed", "1", str(grid_tsv),
    ])
    assert code == 1
    assert "unknown node" in capsys.readouterr().err


def test_bench_cli_record_count(grid_tsv, tmp_path):
    csv_path = tmp_path / "bench.csv"
    code = run([
        "bench", "--k", "2,4,8", "--runs", "3", "--algos", "gs-centers,circle",
        "--seed", "1", "-o", str(csv_path), str(grid_tsv),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("graph,n,m,k,seed")
    assert len(lines) == 1 + 18  # 3 k * 3 runs * 2 algorithms


def test_bench_requires_exactly_one_source(tmp_path):
    with pytest.raises(SystemExit):
        run(["bench", "--k", "2"])


def test_unwritable_bench_output_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    sweeps = []
    monkeypatch.setattr(cli.bench_mod, "run_bench", lambda *args: sweeps.append(args) or [])
    assert run(["bench", "--grid", "4x4", "--k", "2", "--runs", "1", "-o", str(tmp_path / "missing/dir/x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not sweeps


def test_bench_refuses_a_jitter_seed_beside_a_graph_file(grid_tsv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["bench", "--k", "2", "--runs", "1", "--jitter-seed", "5", str(grid_tsv)])
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(" --grid only\n") and err.count("\n") == 1, err


# Eight nodes with tied integer weights, and a two-node island whose arcs
# collapse to one edge: --largest-component keeps 8 of 10 nodes.
ISLAND_GR = """c eight road nodes and a two-node island
p sp 10 12
a 1 2 3
a 2 3 4
a 3 4 3
a 4 1 5
a 2 5 2
a 5 6 7
a 6 3 1
a 6 7 4
a 7 8 4
a 8 4 6
a 9 10 1
a 10 9 2
"""

# Bench CSVs with the time_ms column blanked. The graph column names a
# generated grid as grid:WxH[:jitter:S] and a graph file by its basename.
PINNED_BENCH_CSV = [
    (["--grid", "6x6", "--jitter-seed", "7", "--k", "2,3", "--runs", "2", "--seed", "11"], (
        "grid:6x6:jitter:7,36,60,2,11,0,gs-centers,,62,ok,e45cfce5b6e6dde0\n"
        "grid:6x6:jitter:7,36,60,2,11,0,gs-nodes,,42,ok,e45cfce5b6e6dde0\n"
        "grid:6x6:jitter:7,36,60,2,11,0,circle,,62,ok,e45cfce5b6e6dde0\n"
        "grid:6x6:jitter:7,36,60,2,11,0,nnc,,44,ok,e45cfce5b6e6dde0\n"
        "grid:6x6:jitter:7,36,60,2,11,0,mutual,,62,ok,e45cfce5b6e6dde0\n"
        "grid:6x6:jitter:7,36,60,2,11,1,gs-centers,,59,ok,6900f2b56303ddfa\n"
        "grid:6x6:jitter:7,36,60,2,11,1,gs-nodes,,45,ok,6900f2b56303ddfa\n"
        "grid:6x6:jitter:7,36,60,2,11,1,circle,,59,ok,6900f2b56303ddfa\n"
        "grid:6x6:jitter:7,36,60,2,11,1,nnc,,47,ok,6900f2b56303ddfa\n"
        "grid:6x6:jitter:7,36,60,2,11,1,mutual,,59,ok,6900f2b56303ddfa\n"
        "grid:6x6:jitter:7,36,60,3,11,0,gs-centers,,72,ok,2a255588e936f864\n"
        "grid:6x6:jitter:7,36,60,3,11,0,gs-nodes,,42,ok,2a255588e936f864\n"
        "grid:6x6:jitter:7,36,60,3,11,0,circle,,72,ok,2a255588e936f864\n"
        "grid:6x6:jitter:7,36,60,3,11,0,nnc,,45,ok,2a255588e936f864\n"
        "grid:6x6:jitter:7,36,60,3,11,0,mutual,,72,ok,2a255588e936f864\n"
        "grid:6x6:jitter:7,36,60,3,11,1,gs-centers,,70,ok,cf644ffb05de2f13\n"
        "grid:6x6:jitter:7,36,60,3,11,1,gs-nodes,,42,ok,cf644ffb05de2f13\n"
        "grid:6x6:jitter:7,36,60,3,11,1,circle,,70,ok,cf644ffb05de2f13\n"
        "grid:6x6:jitter:7,36,60,3,11,1,nnc,,45,ok,cf644ffb05de2f13\n"
        "grid:6x6:jitter:7,36,60,3,11,1,mutual,,70,ok,cf644ffb05de2f13\n"
    )),
    (["{d}/isl.gr", "--largest-component", "--k", "2,3", "--runs", "2", "--seed", "5"], (
        "isl.gr,8,10,2,5,0,gs-centers,,12,ok,54cc93590103207b\n"
        "isl.gr,8,10,2,5,0,gs-nodes,,11,ok,54cc93590103207b\n"
        "isl.gr,8,10,2,5,0,circle,,12,ok,54cc93590103207b\n"
        "isl.gr,8,10,2,5,0,nnc,,13,ok,54cc93590103207b\n"
        "isl.gr,8,10,2,5,0,mutual,,12,ok,54cc93590103207b\n"
        "isl.gr,8,10,2,5,1,gs-centers,,13,ok,5ba28aaba6764baf\n"
        "isl.gr,8,10,2,5,1,gs-nodes,,9,ok,5ba28aaba6764baf\n"
        "isl.gr,8,10,2,5,1,circle,,13,ok,5ba28aaba6764baf\n"
        "isl.gr,8,10,2,5,1,nnc,,11,ok,5ba28aaba6764baf\n"
        "isl.gr,8,10,2,5,1,mutual,,13,ok,5ba28aaba6764baf\n"
        "isl.gr,8,10,3,5,0,gs-centers,,13,ok,e2b223e321328230\n"
        "isl.gr,8,10,3,5,0,gs-nodes,,9,ok,e2b223e321328230\n"
        "isl.gr,8,10,3,5,0,circle,,13,ok,e2b223e321328230\n"
        "isl.gr,8,10,3,5,0,nnc,,12,ok,e2b223e321328230\n"
        "isl.gr,8,10,3,5,0,mutual,,13,ok,e2b223e321328230\n"
        "isl.gr,8,10,3,5,1,gs-centers,,16,ok,74f814a8bdd50228\n"
        "isl.gr,8,10,3,5,1,gs-nodes,,11,ok,74f814a8bdd50228\n"
        "isl.gr,8,10,3,5,1,circle,,16,ok,74f814a8bdd50228\n"
        "isl.gr,8,10,3,5,1,nnc,,14,ok,74f814a8bdd50228\n"
        "isl.gr,8,10,3,5,1,mutual,,16,ok,74f814a8bdd50228\n"
    )),
]


@pytest.mark.parametrize("argv, rows", PINNED_BENCH_CSV, ids=["jitter-grid", "dimacs-trimmed"])
def test_bench_csv_bytes_are_pinned(tmp_path, capsys, argv, rows):
    (tmp_path / "isl.gr").write_text(ISLAND_GR)
    assert run(["bench"] + [a.replace("{d}", str(tmp_path)) for a in argv]) == 0
    header, *lines = capsys.readouterr().out.splitlines(keepends=True)
    blanked = []
    for line in lines:
        fields = line.split(",")
        float(fields[7])  # every run is ok, so every row carries a time
        fields[7] = ""
        blanked.append(",".join(fields))
    assert header == "graph,n,m,k,seed,center_set,algorithm,time_ms,work,outcome,digest\n"
    assert "".join(blanked) == rows


def test_bench_and_solve_load_and_trim_a_graph_alike(tmp_path, capsys):
    graph = tmp_path / "isl.gr"
    graph.write_text(ISLAND_GR)
    note = "largest-component: kept 8 of 10 nodes, 10 of 11 edges\n"
    assert run(["solve", "--algo", "circle", "--random-centers", "2", "--largest-component", str(graph)]) == 0
    solved = capsys.readouterr().err
    assert solved.startswith(note) and "n=8 m=10 " in solved
    assert run(["bench", "--k", "2", "--runs", "1", "--algos", "circle", "--largest-component", str(graph)]) == 0
    captured = capsys.readouterr()
    assert captured.err == note
    n, m = captured.out.splitlines()[1].split(",")[1:3]
    assert f"n={n} m={m} " in solved


@pytest.mark.parametrize("spec", ["3", "axb", "3x", "2x3x4", ""])
def test_generate_and_bench_share_one_grid_spec_error(capsys, spec):
    for argv in (["generate", "--grid", spec], ["bench", "--grid", spec, "--k", "2"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: bad grid spec {spec!r} (expected WxH)\n"


def test_running_out_of_memory_exits_3_with_one_line(grid_tsv, tmp_path, capsys, monkeypatch):
    out = tmp_path / "a.tsv"
    common = ["--random-centers", "4", "--seed", "2", str(grid_tsv)]
    assert run(["solve", "--algo", "circle", "-o", str(out)] + common) == 0
    capsys.readouterr()

    def exhausted(inst, assignment):
        raise MemoryError

    monkeypatch.setattr(cli, "member_ball_distances", exhausted)
    assert run(["verify", "--assignment", str(out)] + common) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: the instance is too large for this machine\n"


def test_render_svg_and_geojson(grid_tsv, tmp_path):
    out = tmp_path / "a.tsv"
    assert run([
        "solve", "--algo", "circle", "--random-centers", "3", "--seed", "5",
        "-o", str(out), str(grid_tsv),
    ]) == 0
    svg_path = tmp_path / "map.svg"
    assert run(["render", "--assignment", str(out), "-o", str(svg_path), str(grid_tsv)]) == 0
    svg = svg_path.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert "<svg " in svg and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle ") == 3
    geo_path = tmp_path / "map.geojson"
    assert run(["render", "--assignment", str(out), "-o", str(geo_path), str(grid_tsv)]) == 0
    doc = json.loads(geo_path.read_text())
    assert len(doc["features"]) == 36 + 3
    # determinism across repeat invocations
    svg2 = tmp_path / "map2.svg"
    assert run(["render", "--assignment", str(out), "-o", str(svg2), str(grid_tsv)]) == 0
    assert svg2.read_bytes() == svg_path.read_bytes()


@pytest.mark.parametrize("row", ["7\t0", "7\tnorth\t1.5"])
def test_render_malformed_assignment_row_exits_1(grid_tsv, tmp_path, capsys, row):
    out = tmp_path / "a.tsv"
    assert run(["solve", "--algo", "circle", "--random-centers", "3", "-o", str(out), str(grid_tsv)]) == 0
    lines = out.read_text().splitlines()
    lines[4] = row
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["render", "--assignment", str(out), "-o", str(tmp_path / "m.svg"), str(grid_tsv)]) == 1
    assert "assignment row 5:" in capsys.readouterr().err


@pytest.mark.parametrize("kept", [10, 1])  # a truncated file, and the header alone
def test_render_and_verify_refuse_an_incomplete_assignment_alike(grid_tsv, tmp_path, capsys, kept):
    out = tmp_path / "a.tsv"
    instance = ["--random-centers", "3", "--seed", "5", str(grid_tsv)]
    assert run(["solve", "--algo", "circle", "-o", str(out)] + instance) == 0
    out.write_text("".join(out.read_text().splitlines(keepends=True)[:kept]))
    capsys.readouterr()
    assert run(["render", "--assignment", str(out), "-o", str(tmp_path / "m.svg"), str(grid_tsv)]) == 1
    rendered = capsys.readouterr().err
    assert run(["verify", "--assignment", str(out)] + instance) == 1
    assert capsys.readouterr().err == rendered
    assert rendered.startswith("error: assignment missing node id ")


def test_render_dimacs_graph_with_coordinates(tmp_path):
    gr = tmp_path / "g.gr"
    gr.write_text("p sp 3 2\na 1 2 1\na 2 3 1\n")
    co = tmp_path / "g.co"
    co.write_text("v 1 0 0\nv 2 100 0\nv 3 200 0\n")
    out = tmp_path / "a.tsv"
    assert run([
        "solve", "--algo", "nnc", "--random-centers", "1", "--seed", "0",
        "-o", str(out), str(gr), str(co),
    ]) == 0
    svg = tmp_path / "m.svg"
    assert run(["render", "--assignment", str(out), "-o", str(svg), str(gr), str(co)]) == 0
    assert "<path " in svg.read_text()


def test_trace_flag_writes_events(grid_tsv, tmp_path):
    trace = tmp_path / "trace.log"
    out = tmp_path / "a.tsv"
    assert run([
        "solve", "--algo", "circle", "--random-centers", "2", "--seed", "3",
        "--trace", str(trace), "-o", str(out), str(grid_tsv),
    ]) == 0
    events = {line.split("\t")[0] for line in trace.read_text().splitlines()}
    assert events == {"settle", "match", "halt"}


def test_trace_is_checked_before_the_solve_and_only_for_circle(grid_tsv, tmp_path, capsys, monkeypatch):
    solve = ["solve", "--random-centers", "2", "--seed", "1", str(grid_tsv)]
    refused = tmp_path / "refused.txt"
    assert run(solve + ["--algo", "gs-centers", "--memory-cap", "10", "--trace", str(refused)]) == 1
    assert run(solve + ["--algo", "nnc", "--trace", str(refused)]) == 1
    assert not refused.exists()
    for err in capsys.readouterr().err.splitlines():
        assert err.startswith("error: --trace records circle-growing events; --algo ")
    quotas = tmp_path / "q.txt"
    quotas.write_text("1\n1\n")
    assert run(solve + ["--algo", "circle", "--quotas", str(quotas), "--trace", str(refused)]) == 2
    assert not refused.exists()
    solves = []
    monkeypatch.setattr(cli.bench_mod, "solve", lambda *args, **kw: solves.append(args))
    capsys.readouterr()
    assert run(solve + ["--algo", "circle", "--trace", str(tmp_path / "no" / "t.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not solves


def test_trace_dash_goes_to_stdout_when_the_assignment_goes_to_a_file(grid_tsv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    solve = ["solve", "--algo", "circle", "--random-centers", "2", "--seed", "3", str(grid_tsv)]
    assert run(solve + ["--trace", "t.log", "-o", "a.tsv"]) == 0
    capsys.readouterr()
    assert run(solve + ["--trace", "-", "-o", "b.tsv"]) == 0
    assert capsys.readouterr().out == (tmp_path / "t.log").read_text()
    assert (tmp_path / "b.tsv").read_text() == (tmp_path / "a.tsv").read_text()
    assert not (tmp_path / "-").exists()
    assert run(solve + ["--trace", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: --trace - needs -o FILE: the assignment goes to stdout without it\n")


def test_a_coordinate_file_needs_a_dimacs_graph(grid_tsv, tmp_path, capsys):
    co = tmp_path / "g.co"
    co.write_text("v 1 0 0\n")
    assert run(["solve", "--algo", "circle", "--random-centers", "2",
                "-o", str(tmp_path / "a.tsv"), str(grid_tsv), str(co)]) == 1
    assert capsys.readouterr().err == (
        f"error: coordinate file {co} needs a DIMACS .gr graph, not {grid_tsv}\n")
    assert not (tmp_path / "a.tsv").exists()


def test_absorbing_weights_refuse_circle_and_nnc_but_not_the_table_solvers(tmp_path, capsys):
    graph = tmp_path / "x.tsv"
    graph.write_text(ABSORBING)
    solve = ["solve", "--random-centers", "1", "--seed", "0", str(graph)]
    for algo in ("circle", "nnc"):
        assert run(solve + ["--algo", algo]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: smallest edge weight 1e-17 is below one ulp of the distance bound 4.0")
        assert err.count("\n") == 1
    outputs = set()
    for algo in ("gs-centers", "gs-nodes", "mutual"):
        assert run(solve + ["--algo", algo]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--algo", "circle", "--random-centers", "2", "--bogus", "g.tsv"],
    ["solve", "--algo", "circle", "g.tsv"],
    ["solve", "--algo", "fastest", "--random-centers", "2", "g.tsv"],
    ["generate", "--grid", "-2x3"],
    ["verify", "--random-centers", "2", "g.tsv"],
    ["bench", "--k", "2"],
    [],
])
def test_usage_errors_print_one_error_line_and_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("k", ["2,,3", "two"])
def test_bench_k_is_checked_as_usage(capsys, k):
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--grid", "4x4", "--k", k])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: argument --k: expected comma-separated integers, got '{k}'\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--help"])
    assert exc.value.code == 0
    assert "--trace" in capsys.readouterr().out


def test_centers_file_source(grid_tsv, tmp_path):
    centers = tmp_path / "c.txt"
    centers.write_text("0\n35\n")
    out = tmp_path / "a.tsv"
    assert run([
        "solve", "--algo", "circle", "--centers", str(centers),
        "-o", str(out), str(grid_tsv),
    ]) == 0
    rows = out.read_text().splitlines()[1:]
    assert {r.split("\t")[1] for r in rows} == {"0", "35"}


def test_unknown_center_id_exits_2(grid_tsv, tmp_path, capsys):
    centers = tmp_path / "c.txt"
    centers.write_text("0\n999\n")
    code = run(["solve", "--algo", "circle", "--centers", str(centers), str(grid_tsv)])
    assert code == 2
    assert "not present" in capsys.readouterr().err


# Malformed invocations: (case id, exit code, files to write, argv). The
# code is 1 for bad input, 2 for an infeasible instance and 3 for a memory
# cap refusal. "{d}" in an argument is the case's directory, which holds a
# 5x5 grid as g.tsv and its equal-quota circle assignment as a.tsv.
CIRCLE = ["solve", "--algo", "circle", "--random-centers"]
# Rounding absorbs the 1e-17 weight (2.0 + 1e-17 == 2.0), so searches can
# settle out of distance order.
ABSORBING = "3 2 1\n2 0 1e-17\n3 1 1\n"
AUDIT_CASES = [
    ("bad-graph", 1, {"x.tsv": "0 1 one\n"}, CIRCLE + ["2", "{d}/x.tsv"]),
    ("empty-graph", 1, {"x.tsv": ""}, CIRCLE + ["2", "{d}/x.tsv"]),
    ("binary-graph", 1, {"x.tsv": b"\x00\xff\xfe\x80binary"}, ["solve", "--algo", "nnc", "--random-centers", "2", "{d}/x.tsv"]),
    ("missing-graph", 1, {}, CIRCLE + ["2", "{d}/none.tsv"]),
    ("empty-dimacs", 1, {"x.gr": ""}, CIRCLE + ["1", "{d}/x.gr"]),
    ("dimacs-bad-arc", 1, {"x.gr": "p sp 3 1\na 1 2\n"}, CIRCLE + ["1", "{d}/x.gr"]),
    ("dimacs-huge-header", 1, {"x.gr": "p sp 99999999999 1\na 1 2 1\n"}, CIRCLE + ["1", "{d}/x.gr"]),
    ("dimacs-huge-header-co", 1, {"x.gr": "p sp 99999999999 1\na 1 2 1\n", "x.co": "v 1 0 0\nv 2 1 0\n"}, ["render", "--assignment", "{d}/a.tsv", "-o", "{d}/m.svg", "{d}/x.gr", "{d}/x.co"]),
    ("dimacs-missing-coordinate", 1, {"x.gr": "p sp 3 2\na 1 2 1\na 2 3 1\n", "x.co": "v 1 0 0\nv 3 2 0\n"}, CIRCLE + ["1", "{d}/x.gr", "{d}/x.co"]),
    ("missing-coordinates-file", 1, {"x.gr": "p sp 2 1\na 1 2 1\n"}, CIRCLE + ["1", "{d}/x.gr", "{d}/none.co"]),
    ("zero-weight", 1, {"x.tsv": "0 1 0\n1 2 1\n"}, CIRCLE + ["1", "{d}/x.tsv"]),
    ("negative-weight", 1, {"x.tsv": "0 1 -2\n"}, CIRCLE + ["1", "{d}/x.tsv"]),
    ("nan-weight", 1, {"x.tsv": "0 1 nan\n"}, CIRCLE + ["1", "{d}/x.tsv"]),
    ("inf-weight", 1, {"x.tsv": "0 1 inf\n"}, CIRCLE + ["1", "{d}/x.tsv"]),
    ("self-loop", 1, {"x.tsv": "3 3 1\n"}, CIRCLE + ["1", "{d}/x.tsv"]),
    ("disconnected", 2, {"x.tsv": "0 1 1\n2 3 1\n"}, ["solve", "--algo", "gs-nodes", "--random-centers", "2", "{d}/x.tsv"]),
    ("k-zero", 2, {}, CIRCLE + ["0", "{d}/g.tsv"]),
    ("k-negative", 2, {}, ["solve", "--algo", "mutual", "--random-centers", "-3", "{d}/g.tsv"]),
    ("k-above-n", 2, {}, CIRCLE + ["26", "{d}/g.tsv"]),
    ("centers-not-ints", 1, {"c.txt": "0\nfive\n"}, ["solve", "--algo", "circle", "--centers", "{d}/c.txt", "{d}/g.tsv"]),
    ("centers-duplicate", 2, {"c.txt": "0\n0\n"}, ["solve", "--algo", "circle", "--centers", "{d}/c.txt", "{d}/g.tsv"]),
    ("centers-missing-file", 1, {}, ["solve", "--algo", "circle", "--centers", "{d}/none.txt", "{d}/g.tsv"]),
    ("quotas-wrong-count", 2, {"q.txt": "25\n"}, CIRCLE + ["2", "--quotas", "{d}/q.txt", "{d}/g.tsv"]),
    ("quotas-zero", 2, {"q.txt": "25\n0\n"}, CIRCLE + ["2", "--quotas", "{d}/q.txt", "{d}/g.tsv"]),
    ("quotas-not-ints", 1, {"q.txt": "12.5\n12.5\n"}, CIRCLE + ["2", "--quotas", "{d}/q.txt", "{d}/g.tsv"]),
    ("quotas-binary", 1, {"q.txt": b"\xff\xfe\x00"}, CIRCLE + ["2", "--quotas", "{d}/q.txt", "{d}/g.tsv"]),
    ("memory-cap", 3, {}, ["solve", "--algo", "gs-centers", "--random-centers", "5", "--memory-cap", "10", "{d}/g.tsv"]),
    ("memory-cap-mutual", 3, {}, ["solve", "--algo", "mutual", "--random-centers", "5", "--memory-cap", "10", "{d}/g.tsv"]),
    ("memory-cap-negative", 1, {}, ["solve", "--algo", "gs-centers", "--random-centers", "5", "--memory-cap", "-5", "{d}/g.tsv"]),
    ("memory-cap-beside-no-memory-cap", 1, {}, ["solve", "--algo", "gs-centers", "--random-centers", "5", "--memory-cap", "10", "--no-memory-cap", "{d}/g.tsv"]),
    ("bench-memory-cap-negative", 1, {}, ["bench", "--grid", "3x3", "--k", "2", "--runs", "1", "--memory-cap", "-5"]),
    ("bench-memory-cap-beside-no-memory-cap", 1, {}, ["bench", "--grid", "3x3", "--k", "2", "--runs", "1", "--memory-cap", "10", "--no-memory-cap"]),
    ("grid-one-dimension", 1, {}, ["generate", "--grid", "4"]),
    ("grid-not-ints", 1, {}, ["generate", "--grid", "axb"]),
    ("grid-zero", 1, {}, ["generate", "--grid", "0x5"]),
    ("bench-bad-grid", 1, {}, ["bench", "--grid", "3", "--k", "2", "--runs", "1"]),
    ("bench-grid-not-ints", 1, {}, ["bench", "--grid", "axb", "--k", "2", "--runs", "1"]),
    ("bench-missing-graph", 1, {}, ["bench", "--k", "2", "--runs", "1", "{d}/none.tsv"]),
    ("bench-bad-edge", 1, {"x.tsv": "0 1 1\n1 2 one\n"}, ["bench", "--k", "2", "--runs", "1", "{d}/x.tsv"]),
    ("bench-disconnected", 2, {"x.tsv": "0 1 1\n2 3 1\n"}, ["bench", "--k", "2", "--runs", "1", "{d}/x.tsv"]),
    ("bench-k-zero", 1, {}, ["bench", "--grid", "3x3", "--k", "0", "--runs", "1"]),
    ("bench-k-empty-item", 1, {}, ["bench", "--grid", "4x4", "--k", "2,,3", "--runs", "1"]),
    ("bench-k-not-ints", 1, {}, ["bench", "--grid", "4x4", "--k", "two", "--runs", "1"]),
    ("bench-unknown-algorithm", 1, {}, ["bench", "--grid", "3x3", "--k", "2", "--runs", "1", "--algos", "fastest"]),
    ("bench-jitter-seed-beside-a-graph", 1, {}, ["bench", "--k", "2", "--runs", "1", "--jitter-seed", "5", "{d}/g.tsv"]),
    ("verify-empty-assignment", 1, {"e.tsv": ""}, ["verify", "--assignment", "{d}/e.tsv", "--random-centers", "2", "{d}/g.tsv"]),
    ("verify-binary-assignment", 1, {"e.tsv": b"\x80\x81\x00"}, ["verify", "--assignment", "{d}/e.tsv", "--random-centers", "2", "{d}/g.tsv"]),
    ("verify-missing-assignment", 1, {}, ["verify", "--assignment", "{d}/none.tsv", "--random-centers", "2", "{d}/g.tsv"]),
    ("render-empty-assignment", 1, {"e.tsv": ""}, ["render", "--assignment", "{d}/e.tsv", "-o", "{d}/m.svg", "{d}/g.tsv"]),
    ("render-unknown-center", 1, {"e.tsv": "0\t99\t0.0\n"}, ["render", "--assignment", "{d}/e.tsv", "-o", "{d}/m.svg", "{d}/g.tsv"]),
    ("unwritable-solve-output", 1, {}, CIRCLE + ["2", "-o", "{d}/no/dir/a.tsv", "{d}/g.tsv"]),
    ("output-is-a-directory", 1, {}, ["render", "--assignment", "{d}/a.tsv", "-o", "{d}", "{d}/g.tsv"]),
    ("unwritable-generate-output", 1, {}, ["generate", "--grid", "3x3", "-o", "{d}/no/dir/g.tsv"]),
    ("unwritable-trace", 1, {}, CIRCLE + ["2", "--trace", "{d}/no/dir/t.txt", "{d}/g.tsv"]),
    ("trace-for-other-solver", 1, {}, ["solve", "--algo", "nnc", "--random-centers", "2", "--trace", "{d}/t.txt", "{d}/g.tsv"]),
    ("tsv-bad-edge-after-duplicate-coordinate", 1, {"x.tsv": "0 1 1\n#node 0 0 0\n#node 0 0 0\n1 2 x\n"}, CIRCLE + ["1", "{d}/x.tsv"]),
    ("tsv-duplicate-coordinate", 1, {"x.tsv": "0 1 1\n#node 0 0 0\n#node 1 0 0\n#node 0 1 1\n"}, CIRCLE + ["1", "{d}/x.tsv"]),
    ("dimacs-duplicate-coordinate", 1, {"x.gr": "p sp 2 2\na 1 2 1\na 2 1 3\n", "x.co": "v 1 0 0\nv 1 0 0\n"}, CIRCLE + ["1", "{d}/x.gr", "{d}/x.co"]),
    ("argparse-unknown-flag", 1, {}, CIRCLE + ["2", "--fastest", "{d}/g.tsv"]),
    ("argparse-missing-argument", 1, {}, ["solve", "--algo", "circle", "{d}/g.tsv"]),
    ("argparse-bad-algo", 1, {}, ["solve", "--algo", "fastest", "--random-centers", "2", "{d}/g.tsv"]),
    ("argparse-negative-grid", 1, {}, ["generate", "--grid", "-2x3"]),
    ("circle-absorbing-weight", 1, {"x.tsv": ABSORBING}, CIRCLE + ["1", "{d}/x.tsv"]),
    ("nnc-absorbing-weight", 1, {"x.tsv": ABSORBING}, ["solve", "--algo", "nnc", "--random-centers", "1", "{d}/x.tsv"]),
    ("trace-to-stdout-beside-the-assignment", 1, {}, CIRCLE + ["2", "--trace", "-", "{d}/g.tsv"]),
    ("trace-to-stdout-beside-output-dash", 1, {}, CIRCLE + ["2", "--trace", "-", "-o", "-", "{d}/g.tsv"]),
    ("summary-to-stdout-beside-the-assignment", 1, {}, CIRCLE + ["2", "--summary", "-", "{d}/g.tsv"]),
    ("summary-and-output-name-one-file", 1, {}, CIRCLE + ["2", "-o", "{d}/o.tsv", "--summary", "{d}/o.tsv", "{d}/g.tsv"]),
    ("trace-and-output-name-one-file", 1, {}, CIRCLE + ["2", "-o", "{d}/o.tsv", "--trace", "{d}/o.tsv", "{d}/g.tsv"]),
    ("co-beside-tsv-solve", 1, {}, CIRCLE + ["2", "-o", "{d}/o.tsv", "{d}/g.tsv", "{d}/missing.co"]),
    ("co-beside-tsv-verify", 1, {}, ["verify", "--assignment", "{d}/a.tsv", "--random-centers", "5", "{d}/g.tsv", "{d}/missing.co"]),
    ("co-beside-tsv-render", 1, {}, ["render", "--assignment", "{d}/a.tsv", "-o", "{d}/m.svg", "{d}/g.tsv", "{d}/missing.co"]),
]

AUDIT_MEMORY_LIMIT = 1 << 30


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (AUDIT_MEMORY_LIMIT, AUDIT_MEMORY_LIMIT))


@pytest.mark.parametrize("code, files, argv", [c[1:] for c in AUDIT_CASES], ids=[c[0] for c in AUDIT_CASES])
def test_malformed_invocation_exits_with_one_error_line(tmp_path, code, files, argv):
    # Each case runs in its own process under a 1 GiB address-space limit,
    # so input that makes the CLI allocate by a declared size fails fast.
    assert main(["generate", "--grid", "5x5", "-o", str(tmp_path / "g.tsv")]) == 0
    grid = ["--random-centers", "5", str(tmp_path / "g.tsv")]
    assert main(["solve", "--algo", "circle", "-o", str(tmp_path / "a.tsv")] + grid) == 0
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    src = str(Path(stabledistrict.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "stabledistrict.cli"] + [a.replace("{d}", str(tmp_path)) for a in argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_memory,
    )
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert proc.returncode == code, proc.stderr
    assert len(errors) == 1 and proc.stderr == errors[0] + "\n", proc.stderr
    assert "Traceback" not in proc.stderr
