"""One benchmark instance: every solver, the verifier, the export and the
CLI chain, timed stage by stage and checked against each other.

Stages call the package through its module attributes (``modules["nnc"].
nnc_run`` and so on) so that the traced pass sees the wrappers that
``spans.Layers`` installs there.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import tracemalloc

from spans import clock
from workloads import instance_centers

# The last, mutual, is the reference: it runs first and the others must match it.
SOLVERS = ("gs-centers", "gs-nodes", "circle", "nnc", "mutual")
# A stage that ends sooner runs again in the same visit, up to STAGE_MAX_RUNS.
STAGE_MIN_S = 0.05
STAGE_MAX_RUNS = 8

# name, unit, better, bound (share of the parent's median it may worsen by).
# Times are scaled CPU seconds (``calibrate``), which leaves the host's drift
# out, but circle and nnc work still varies by about 25% between center sets
# and the scaling is not exact on every stage. Every time keeps the widest
# bound BENCHMARK.json allows, 25%, so that a run-to-run spread has room.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    *((f"solve_s.{name}", "s", "lower", 0.25) for name in SOLVERS),
    ("verify_s", "s", "lower", 0.25),
    ("export_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)
TIMED_STAGES = tuple(name for name, unit, _, _ in END_TO_END if unit == "s")

# name, unit, better, what it should move and on which workload.
PER_LAYER = (
    ("graph.parse_s", "s", "lower", "setup_s, pipeline_s on grid-ingest; ~0 share on grid-manyk"),
    ("graph.from_edges_s", "s", "lower", "setup_s, pipeline_s on grid-ingest"),
    ("graph.components_s", "s", "lower", "setup_s, pipeline_s on grid-ingest"),
    ("graph.largest_component_s", "s", "lower", "setup_s on road-skew only"),
    ("graph.dijkstra_calls", "count", "lower", "verify_s, solve_s.mutual on grid-manyk"),
    ("model.center_distances_s", "s", "lower", "verify_s, solve_s.mutual on grid-manyk"),
    ("gale_shapley.prefs_dijkstra_s", "s", "lower", "solve_s.gs-* on grid-manyk"),
    ("gale_shapley.prefs_sort_s", "s", "lower", "solve_s.gs-* on grid-manyk"),
    ("gale_shapley.match_centers_s", "s", "lower", "solve_s.gs-centers on road-skew"),
    ("gale_shapley.match_nodes_s", "s", "lower", "solve_s.gs-nodes on road-skew"),
    ("gale_shapley.proposals_centers", "count", "lower", "solve_s.gs-centers on road-skew"),
    ("gale_shapley.proposals_nodes", "count", "lower", "solve_s.gs-nodes on road-skew"),
    ("model.verify_scan_s", "s", "lower", "verify_s on grid-manyk"),
    ("circle.settled", "count", "lower", "solve_s.circle, pipeline_s on road-skew and grid-ingest"),
    ("circle.pushed", "count", "lower", "solve_s.circle, pipeline_s on road-skew and grid-ingest"),
    ("circle.match_ratio", "ratio", "higher", "solve_s.circle, pipeline_s on road-skew and grid-ingest"),
    ("circle.settled_eq_gs_frac", "frac", "higher", "reported only: circle settles == gs-centers proposals"),
    ("nnc.center_oracle.init_s", "s", "lower", "solve_s.nnc on road-skew"),
    ("nnc.center_oracle.nearest_s", "s", "lower", "solve_s.nnc on road-skew"),
    ("nnc.center_oracle.calls", "count", "lower", "solve_s.nnc on road-skew"),
    ("nnc.node_oracle.init_s", "s", "lower", "solve_s.nnc on grid-manyk"),
    ("nnc.node_oracle.nearest_s", "s", "lower", "solve_s.nnc on grid-manyk"),
    ("nnc.node_oracle.calls", "count", "lower", "solve_s.nnc on grid-manyk"),
    ("nnc.chain_self_s", "s", "lower", "solve_s.nnc on all workloads"),
    ("nnc.queries", "count", "lower", "solve_s.nnc on all workloads"),
    ("nnc.updates", "count", "lower", "solve_s.nnc on all workloads"),
    ("nnc.stack_pushes", "count", "lower", "solve_s.nnc on all workloads"),
    ("nnc.seeds", "count", "lower", "solve_s.nnc on all workloads"),
    ("nnc.match_ratio", "ratio", "higher", "solve_s.nnc on all workloads"),
    ("mutual.table_s", "s", "lower", "solve_s.mutual on grid-manyk"),
    ("mutual.heap_s", "s", "lower", "solve_s.mutual on grid-manyk"),
    ("mutual.pops", "count", "lower", "solve_s.mutual on grid-manyk"),
    ("mutual.match_ratio", "ratio", "higher", "solve_s.mutual on grid-manyk"),
    ("model.to_tsv_s", "s", "lower", "export_s, pipeline_s on grid-ingest"),
    ("model.summary_s", "s", "lower", "export_s on grid-ingest"),
    ("render.svg_s", "s", "lower", "export_s, pipeline_s on grid-ingest"),
    ("render.svg_bytes", "bytes", "lower", "export_s, pipeline_s on grid-ingest"),
    ("cli.solve_s", "s", "lower", "pipeline_s on all workloads"),
    ("cli.verify_s", "s", "lower", "pipeline_s on all workloads"),
    ("cli.render_s", "s", "lower", "pipeline_s on all workloads"),
    ("model.parse_assignment_s", "s", "lower", "pipeline_s on all workloads"),
    ("gale_shapley.peak_mib", "MiB", "lower", "peak_rss_mib on grid-manyk"),
    ("circle.peak_mib", "MiB", "lower", "peak_rss_mib on grid-manyk"),
    ("nnc.peak_mib", "MiB", "lower", "peak_rss_mib on grid-manyk"),
    ("mutual.peak_mib", "MiB", "lower", "peak_rss_mib on grid-manyk"),
    *(
        (f"trace_overhead.{stage}", "s", "lower", f"traced minus untraced {stage}; no metric")
        for stage in TIMED_STAGES
    ),
)

# Counters that must repeat exactly between two runs of the same instance.
COUNTERS = (
    "circle.settled", "circle.pushed", "gale_shapley.proposals_centers",
    "gale_shapley.proposals_nodes", "nnc.queries", "nnc.updates",
    "nnc.stack_pushes", "nnc.seeds", "mutual.pops",
)
PEAK_SOLVERS = (("gale_shapley", "gs-centers"), ("circle", "circle"), ("nnc", "nnc"), ("mutual", "mutual"))


class Gate:
    """Counts operations and the ones that failed.

    An operation fails when it raises (a memory-cap refusal included) or
    when any check on its output does not hold; a failure never aborts the
    run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, what: str, fn, *args):
        """Attempt one operation; returns (ok, result), result None on error."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # any error counts against the run, which goes on
            self._fail(what, f"{type(exc).__name__}: {exc}")
            return False, None

    def expect(self, what: str, checks: list[tuple[bool, str]]) -> None:
        """Attempt an operation that consists of the checks alone."""
        self.attempted += 1
        self.check(what, checks)

    def check(self, what: str, checks: list[tuple[bool, str]]) -> None:
        """Charge the failed checks of an attempted operation to it, once."""
        broken = [msg for ok, msg in checks if not ok]
        if broken:
            self._fail(what, "; ".join(broken))

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {why}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Case:
    """One workload's inputs under one seed, and the package to run them on."""

    def __init__(self, modules: dict, workload, inputs, seed: int, workdir: str):
        self.m = modules
        self.w = workload
        self.inputs = inputs
        self.seed = seed
        self.workdir = workdir

    def graph_args(self) -> list[str]:
        if self.inputs.co_path is None:
            return [self.inputs.graph_path]
        return [self.inputs.graph_path, self.inputs.co_path, "--largest-component"]

    def load(self, centers: list[int]):
        """Graph files -> RoadGraph -> Instance, as a library user would."""
        graph, model = self.m["graph"], self.m["model"]
        if self.inputs.co_path is None:
            with open(self.inputs.graph_path, "r", encoding="utf-8") as fh:
                g = graph.parse_tsv(fh)
            quotas = model.equal_quotas(g.node_count, self.w.k)
        else:
            with open(self.inputs.graph_path, "r", encoding="utf-8") as gr, \
                    open(self.inputs.co_path, "r", encoding="utf-8") as co:
                g = graph.largest_component(graph.parse_dimacs(gr, co))
            with open(self.inputs.quota_path, "r", encoding="utf-8") as fh:
                quotas = [int(line) for line in fh if line.strip()]
        return model.Instance(g, centers, quotas)

    def solve(self, name: str, inst, oracle_factory=None):
        m = self.m
        if name in ("gs-centers", "gs-nodes"):
            prefs = m["gale_shapley"].build_preferences(inst)
            run = (m["gale_shapley"].gs_centers_run if name == "gs-centers"
                   else m["gale_shapley"].gs_nodes_run)(inst, prefs)
            side = "centers" if name == "gs-centers" else "nodes"
            return run.assignment, {f"gale_shapley.proposals_{side}": run.proposals}
        if name == "circle":
            run = m["circle"].circle_growing_run(inst)
            return run.assignment, {
                "circle.settled": run.settled_total, "circle.pushed": run.pushed_total,
            }
        if name == "nnc":
            run = m["nnc"].nnc_run(inst, oracle_factory)
            return run.assignment, {
                "nnc.queries": run.oracle_queries, "nnc.updates": run.oracle_updates,
                "nnc.stack_pushes": run.stack_pushes, "nnc.seeds": run.seeds,
            }
        run = m["nnc"].mutual_closest_run(inst)
        return run.assignment, {"mutual.pops": run.pops}

    def export(self, inst, a) -> tuple[str, str, str]:
        model = self.m["model"]
        return (
            model.assignment_to_tsv(inst, a),
            model.assignment_summary_json(inst, a),
            self.m["render"].render_svg(inst, a),
        )

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.m["cli"].main(argv)
        return code, out.getvalue()


def run_instance(case: Case, i: int, gate: Gate, rec=None, oracle_factory=None,
                 cal=None) -> dict:
    """Visit instance i once; returns {"times": {stage: [s, ...]}, "counters": {...}}.

    Untraced, a stage that ends in under ``STAGE_MIN_S`` runs again, up to
    ``STAGE_MAX_RUNS`` times, so short stages get as many samples per second
    as long ones. Every run is checked. With ``rec`` each stage runs once as
    a span, so the layer wrappers the caller installed nest under it. Times
    and counters of operations that raised are left out. With ``cal`` (a
    ``calibrate.Calibration``) the reference kernel runs once before each
    stage.
    """
    inputs = case.inputs
    centers = instance_centers(inputs.n, case.w.k, case.seed, i)
    times: dict[str, list[float]] = {stage: [] for stage in TIMED_STAGES}
    counters: dict[str, int] = {}
    out: dict = {"times": times, "counters": counters}

    def timed(stage: str, what: str, check, fn, *args):
        spent = 0.0
        if cal is not None:
            cal.sample()
        while True:
            gc.collect()
            idx = rec.open("stage." + stage) if rec is not None else None
            t0 = clock()
            try:
                ok, result = gate.run(what, fn, *args)
            finally:
                dt = clock() - t0
                if rec is not None:
                    rec.close(idx)
            if not ok:
                return False, None
            times[stage].append(dt)
            gate.check(what, check(result))
            spent += dt
            if rec is not None or spent >= STAGE_MIN_S or len(times[stage]) >= STAGE_MAX_RUNS:
                return True, result

    def check_graph(inst):
        g = inst.graph
        return [
            (g.node_count == inputs.n, f"n={g.node_count}, generator says {inputs.n}"),
            (g.edge_count == inputs.m, f"m={g.edge_count}, generator says {inputs.m}"),
        ]

    ok, inst = timed("setup_s", f"instance {i} setup", check_graph, case.load, centers)
    if not ok:
        return out

    digest = case.m["bench"].assignment_digest
    ref_digest = None

    def check_reference(res):
        nonlocal ref_digest
        assignment, stats = res
        ref_digest = ref_digest or digest(assignment)
        first = {key: counters.setdefault(key, value) for key, value in stats.items()}
        return [
            (digest(assignment) == ref_digest, "digest differs from this visit's first run"),
            (stats == first, f"counters {stats} differ from this visit's first run {first}"),
        ]

    ok, ref = timed("solve_s.mutual", f"instance {i} mutual", check_reference,
                    case.solve, "mutual", inst)
    if not ok:
        return out
    reference = ref[0]

    def check_solution(res):
        assignment, stats = res
        first = {key: counters.setdefault(key, value) for key, value in stats.items()}
        return [
            (digest(assignment) == ref_digest, "digest differs from mutual's"),
            (stats == first, f"counters {stats} differ from this visit's first run {first}"),
        ]

    for name in SOLVERS[:-1]:
        timed(f"solve_s.{name}", f"instance {i} {name}", check_solution,
              case.solve, name, inst, oracle_factory if name == "nnc" else None)

    model = case.m["model"]

    def verify():
        return model.verify_stable(inst, reference, model.compute_center_distances(inst))

    timed("verify_s", f"instance {i} verify",
          lambda verdict: [(verdict is None, f"verify_stable says {verdict}")], verify)

    def check_export(res):
        tsv, _, svg = res
        return [
            (tsv.count("\n") == inputs.n + 1, "TSV row count != n + 1"),
            (svg.endswith("</svg>\n"), "SVG is not closed"),
        ]

    ok, exported = timed("export_s", f"instance {i} export", check_export,
                         case.export, inst, reference)
    if not ok:
        return out
    tsv, _, svg = exported
    out["svg_bytes"] = len(svg.encode())

    def check_pipeline(steps):
        (code_s, _), (code_v, verify_out), (code_r, _) = steps
        # The verify and render steps count as operations of their own.
        gate.expect(f"instance {i} cli verify", [
            (code_v == 0, f"verify exit {code_v}"),
            (verify_out == "STABLE\n", f"verify printed {verify_out.strip()!r}"),
        ])
        gate.expect(f"instance {i} cli render", [
            (code_r == 0, f"render exit {code_r}"),
            (_read(_path(case, i, "map.svg")) == svg, "render output bytes differ from render_svg"),
        ])
        return [
            (code_s == 0, f"solve exit {code_s}"),
            (_read(_path(case, i, "assignment.tsv")) == tsv,
             "solve output bytes differ from assignment_to_tsv"),
        ]

    _write_centers(case, i, inst)
    timed("pipeline_s", f"instance {i} cli solve", check_pipeline, _pipeline, case, i, rec)
    return out


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _path(case: Case, i: int, name: str) -> str:
    return os.path.join(case.workdir, f"i{i}-{name}")


def _write_centers(case: Case, i: int, inst) -> None:
    ids = inst.graph.original_ids
    with open(_path(case, i, "centers.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{ids[c]}\n" for c in inst.centers))


def _pipeline(case: Case, i: int, rec):
    """solve --algo circle -> verify -> render, each step re-reading the graph."""
    for name in ("assignment.tsv", "map.svg"):  # no stale output from an earlier run
        with contextlib.suppress(FileNotFoundError):
            os.remove(_path(case, i, name))
    centers_path = _path(case, i, "centers.txt")
    quotas = case.inputs.quota_path or "equal"
    assignment = _path(case, i, "assignment.tsv")
    instance_args = ["--centers", centers_path, "--quotas", quotas]
    steps = []
    for name, argv in (
        ("cli.solve", ["solve", "--algo", "circle", *case.graph_args(), *instance_args,
                       "-o", assignment]),
        ("cli.verify", ["verify", *case.graph_args(), *instance_args,
                        "--assignment", assignment]),
        ("cli.render", ["render", *case.graph_args(), "--assignment", assignment,
                        "-o", _path(case, i, "map.svg")]),
    ):
        idx = rec.open(name) if rec is not None else None
        try:
            steps.append(case.cli(argv))
        finally:
            if rec is not None:
                rec.close(idx)
    return steps


def solver_peaks(case: Case, inst) -> dict[str, float]:
    """tracemalloc peak (MiB above the starting level) of one run per solver."""
    peaks = {}
    for layer, name in PEAK_SOLVERS:
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            case.solve(name, inst)
            peaks[f"{layer}.peak_mib"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
    return peaks


def layer_metrics(rec, i: int, n: int, run: dict) -> dict[str, float]:
    """Per-layer values of traced visit i (seconds per instance pass)."""
    c = run["counters"]
    v: dict[str, float] = {
        "graph.parse_s": rec.total(i, "graph.parse"),
        "graph.from_edges_s": rec.total(i, "graph.from_edges"),
        "graph.components_s": rec.total(i, "graph.components"),
        "graph.largest_component_s": rec.total(i, "graph.largest_component"),
        "graph.dijkstra_calls": rec.hot_count(i, "graph.dijkstra"),
        "model.center_distances_s": rec.total(i, "model.center_distances"),
        "gale_shapley.prefs_dijkstra_s": rec.total(i, "gale_shapley.prefs_dijkstra"),
        "gale_shapley.prefs_sort_s": rec.total_self(i, "gale_shapley.build_preferences"),
        "gale_shapley.match_centers_s": rec.total(i, "gale_shapley.match_centers"),
        "gale_shapley.match_nodes_s": rec.total(i, "gale_shapley.match_nodes"),
        "model.verify_scan_s": rec.total(i, "model.verify_scan"),
        "nnc.center_oracle.init_s": rec.total(i, "nnc.center_oracle.init"),
        "nnc.center_oracle.nearest_s": rec.hot_total(i, "nnc.center_oracle.nearest"),
        "nnc.center_oracle.calls": rec.hot_count(i, "nnc.center_oracle.nearest"),
        "nnc.node_oracle.init_s": rec.total(i, "nnc.node_oracle.init"),
        "nnc.node_oracle.nearest_s": rec.hot_total(i, "nnc.node_oracle.nearest"),
        "nnc.node_oracle.calls": rec.hot_count(i, "nnc.node_oracle.nearest"),
        "nnc.chain_self_s": rec.total_self(i, "nnc.run"),
        "mutual.table_s": rec.total(i, "mutual.table"),
        "mutual.heap_s": rec.total_self(i, "mutual.run"),
        "model.to_tsv_s": rec.total(i, "model.to_tsv"),
        "model.summary_s": rec.total(i, "model.summary"),
        "render.svg_s": rec.total(i, "render.svg"),
        "cli.solve_s": rec.total(i, "cli.solve"),
        "cli.verify_s": rec.total(i, "cli.verify"),
        "cli.render_s": rec.total(i, "cli.render"),
        "model.parse_assignment_s": rec.total(i, "model.parse_assignment"),
    }
    for name in COUNTERS:
        if name in c:
            v[name] = c[name]
    if "svg_bytes" in run:
        v["render.svg_bytes"] = run["svg_bytes"]
    for name, counter in (("circle", "circle.settled"), ("nnc", "nnc.queries"),
                          ("mutual", "mutual.pops")):
        if c.get(counter):
            v[f"{name}.match_ratio"] = n / c[counter]
    if "circle.settled" in c and "gale_shapley.proposals_centers" in c:
        v["circle.settled_eq_gs_frac"] = float(
            c["circle.settled"] == c["gale_shapley.proposals_centers"])
    return v
