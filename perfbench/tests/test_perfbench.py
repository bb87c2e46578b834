"""Tests of the benchmark itself: inputs, metric names, the gate, the trace.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import calibrate
import measure
import pytest
import run
import spans
import workloads
from workloads import Workload

TINY_GRID = Workload(name="tiny-grid", kind="grid-tsv", width=12, height=12, k=4,
                     quota_rule="equal", why="test")
TINY_ROAD = Workload(name="tiny-road", kind="road-dimacs", width=14, height=14, k=5,
                     quota_rule="zipf", why="test", drop_pct=12)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _case(modules, w, tmp_path, seed=3):
    inputs = workloads.write_inputs(w, seed, str(tmp_path))
    return measure.Case(modules, w, inputs, seed, str(tmp_path))


def test_generators_repeat_byte_for_byte_per_seed():
    assert workloads.grid_tsv(9, 7, 11) == workloads.grid_tsv(9, 7, 11)
    assert workloads.grid_tsv(9, 7, 11) != workloads.grid_tsv(9, 7, 12)
    first = workloads.road_dimacs(20, 20, 12, 6, 5)
    assert first == workloads.road_dimacs(20, 20, 12, 6, 5)
    assert first[0] != workloads.road_dimacs(20, 20, 12, 6, 6)[0]


def test_write_inputs_repeat_for_the_same_seed(tmp_path):
    for w in (TINY_GRID, TINY_ROAD):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(exist_ok=True)
        b.mkdir(exist_ok=True)
        ia = workloads.write_inputs(w, 8, str(a))
        ib = workloads.write_inputs(w, 8, str(b))
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (ia.n, ia.m, ia.input_bytes) == (ib.n, ib.m, ib.input_bytes)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_road_text_parses_with_its_coordinates(modules, seed):
    graph = modules["graph"]
    gr, co, quotas, n, m = workloads.road_dimacs(30, 30, 12, 7, seed)
    full = graph.parse_dimacs(gr, co)
    assert full.node_count == 900 + workloads.ISLAND
    g = graph.largest_component(full)
    assert (g.node_count, g.edge_count) == (n, m)
    assert n <= 900  # the island, at least, falls off the trimmed component
    q = [int(x) for x in quotas.split()]
    assert len(q) == 7 and sum(q) == n
    assert q[1:] == sorted(q[1:], reverse=True) and q[0] >= q[1]


def test_sampling_matches_the_package(modules):
    bench = modules["bench"]
    for n, k, seed in ((100, 7, 1), (4096, 64, 2**63 + 5), (9, 9, 0)):
        assert workloads.derive_seed(seed, k, 3) == bench.derive_seed(seed, k, 3)
        assert workloads.sample_centers(n, k, seed) == bench.sample_centers(n, k, seed)


def test_metric_names_and_benchmark_json_agree_with_the_code():
    e2e = [name for name, *_ in measure.END_TO_END]
    layers = [name for name, *_ in measure.PER_LAYER]
    for name in e2e + layers:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in measure.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in measure.PER_LAYER
    ]
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("w", [TINY_GRID, TINY_ROAD], ids=lambda w: w.name)
def test_instance_passes_the_gate(modules, tmp_path, w):
    case = _case(modules, w, tmp_path)
    gate = measure.Gate()
    cal = calibrate.Calibration()
    out = measure.run_instance(case, 0, gate, cal=cal)
    assert gate.failures == []
    assert len(cal.samples) == len(measure.TIMED_STAGES)  # the kernel runs once per stage
    runs = {stage: len(v) for stage, v in out["times"].items()}
    assert all(1 <= r <= measure.STAGE_MAX_RUNS for r in runs.values())
    assert runs["setup_s"] > 1  # a tiny setup is sampled more than once per visit
    # the CLI verify and render steps are operations of their own
    assert gate.attempted == sum(runs.values()) + 2 * runs["pipeline_s"]
    assert set(out["counters"]) == set(measure.COUNTERS)


def _swap_two(assignment, model):
    match = list(assignment.match)
    u = 0
    v = next(x for x in range(len(match)) if match[x] != match[u])
    match[u], match[v] = match[v], match[u]
    return model.Assignment(match=match, dist=list(assignment.dist))


@pytest.mark.parametrize("solver", ["circle", "mutual"])
def test_gate_bites_on_a_swapped_assignment(modules, tmp_path, monkeypatch, solver):
    circle, nnc, model = modules["circle"], modules["nnc"], modules["model"]
    attr = "circle_growing_run" if solver == "circle" else "mutual_closest_run"
    owner = circle if solver == "circle" else nnc
    real = getattr(owner, attr)

    def swapped(*args, **kwargs):
        result = real(*args, **kwargs)
        return result._replace(assignment=_swap_two(result.assignment, model))

    monkeypatch.setattr(owner, attr, swapped)
    gate = measure.Gate()
    measure.run_instance(_case(modules, TINY_GRID, tmp_path), 0, gate)
    assert gate.failed_frac > 0
    if solver == "mutual":
        # every other solver disagrees with the reference, and the reference is unstable
        differ = {f.split(":")[0] for f in gate.failures if "digest differs" in f}
        assert differ == {f"instance 0 {name}" for name in measure.SOLVERS[:-1]}
        assert any("verify_stable says" in f for f in gate.failures)


def test_counters_repeat_and_traced_pass_leaves_the_package_as_it_was(modules, tmp_path):
    case = _case(modules, TINY_ROAD, tmp_path)
    gate = measure.Gate()
    first = measure.run_instance(case, 1, gate)
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in spans.SPAN_PATCHES}
    from_edges = modules["graph"].RoadGraph.__dict__["from_edges"]
    rec = spans.SpanRecorder()
    layers = spans.Layers(modules, rec)
    rec.instance, rec.visit = 1, 0
    layers.install()
    try:
        traced = measure.run_instance(case, 1, gate, rec=rec, oracle_factory=layers.oracle_factory())
    finally:
        layers.uninstall()
    assert gate.failures == [] and layers.missing == []
    assert traced["counters"] == first["counters"]
    assert {(m, a): getattr(modules[m], a) for m, a, _ in spans.SPAN_PATCHES} == originals
    assert modules["graph"].RoadGraph.__dict__["from_edges"] is from_edges

    values = measure.layer_metrics(rec, 0, case.inputs.n, traced)
    expected = {name for name, *_ in measure.PER_LAYER
                if not name.startswith("trace_overhead.") and not name.endswith(".peak_mib")}
    assert set(values) == expected
    assert values["graph.dijkstra_calls"] == 5 * TINY_ROAD.k  # two GS builds, mutual, verify, CLI verify
    assert values["graph.largest_component_s"] > 0
    assert values["nnc.center_oracle.calls"] + values["nnc.node_oracle.calls"] == values["nnc.queries"]
    for i, span in enumerate(rec.spans):
        assert span.end >= span.start
        assert rec.self_time(i) >= -1e-6, span.name


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    cal = calibrate.Calibration()
    cal.samples = [0.002, 0.010, 0.004]
    assert cal.factor() == pytest.approx(calibrate.REFERENCE_S / 0.004)


def test_self_time_subtracts_the_union_of_children():
    rec = spans.SpanRecorder()
    rec.spans = [
        spans.Span("p", 0.0, 10.0, children=[1, 2]),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 3.0, 6.0, parent=0),
    ]
    rec.spans[0].hot_s = 1.5
    assert rec.self_time(0) == pytest.approx(10.0 - 5.0 - 1.5)


def test_run_fails_without_the_package_source(tmp_path):
    bench_dir = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench_dir, ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-manyk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
