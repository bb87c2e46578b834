"""Benchmark of the stabledistrict package on seeded workloads.

    python3 perfbench/run.py --workload grid-ingest --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy. The run
writes the workload's input files for ``--seed``, then visits instances
(a fresh center set each: every solver, the verifier, the export and the
CLI chain ``solve --algo circle -> verify -> render``) until ``--seconds``
are used, checking every answer. The last line of stdout is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. An end-to-end time is the median over the run's visits of
the stage's CPU seconds on that visit's instance, scaled to the reference
speed of ``calibrate.py``; the unscaled medians are printed above the JSON.
Per-layer times are unscaled CPU seconds. A traced run also writes its
spans to ``perfbench/_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

PACKAGE_MODULES = ("bench", "circle", "cli", "gale_shapley", "graph", "model", "nnc", "render")


def load_package() -> dict:
    """Import the package from this checkout's ``src/``; exit with an error without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "stabledistrict", "__init__.py")):
        sys.exit(f"error: no package source at {src}/stabledistrict")
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"stabledistrict.{name}") for name in PACKAGE_MODULES}
    origin = os.path.dirname(modules["graph"].__file__)
    if os.path.realpath(origin) != os.path.realpath(os.path.join(src, "stabledistrict")):
        sys.exit(f"error: imported the package from {origin}, not from {src}")
    return modules


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def schedule(seconds: float):
    """Instance ids 0, 1, 2, ... until the next visit would overrun ``seconds``."""
    start = perf_counter()
    i = 0
    while True:
        yield i
        i += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / i > seconds:
            return


def run_untraced(case, gate, seconds: float):
    """A stage's metric is the median over visits of its scaled time in the visit.

    A visit's time for a stage is the median of the stage's runs in it,
    scaled by the visit's reference-kernel factor (``calibrate``). Each visit
    is a fresh center set and counts once, however often a short stage ran
    in it. Also returns the unscaled medians and the kernel's, for the log.
    """
    samples: dict[str, list[float]] = {stage: [] for stage in measure.TIMED_STAGES}
    raw: dict[str, list[float]] = {stage: [] for stage in measure.TIMED_STAGES}
    kernel: list[float] = []
    counters: list[dict] = []
    for i in schedule(seconds):
        cal = calibrate.Calibration()
        run = measure.run_instance(case, i, gate, cal=cal)
        counters.append(run["counters"])
        kernel.append(cal.kernel_s())
        for stage, values in run["times"].items():
            if values:
                raw[stage].append(_median(values))
                samples[stage].append(raw[stage][-1] * cal.factor())
    metrics = {stage: _median(samples[stage]) for stage in measure.TIMED_STAGES}
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log = {f"cpu {stage}": _median(raw[stage]) for stage in measure.TIMED_STAGES}
    log["cpu calibrate.kernel"] = _median(kernel)
    return metrics, counters, samples, log


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return f"{n} visits"
    ordered = sorted(values)
    return f"p{100 * (n - 10) // n} {ordered[n - 11]:.4f} of {n} visits"


def run_traced(case, gate, seconds: float, modules: dict):
    """An untraced then a traced pass per visit; per-layer medians over visits."""
    rec = spans.SpanRecorder()
    layers = spans.Layers(modules, rec)
    start = perf_counter()
    peaks = {}
    ok, inst = gate.run("peak-memory setup", case.load,
                        measure.instance_centers(case.inputs.n, case.w.k, case.seed, 0))
    if ok:
        ok, peaks = gate.run("peak-memory pass", measure.solver_peaks, case, inst)
        peaks = peaks or {}
        del inst
    visits: list[dict[str, float]] = []
    counters: list[dict] = []
    for i in schedule(seconds - (perf_counter() - start)):
        plain = measure.run_instance(case, i, gate)
        rec.instance, rec.visit = i, len(visits)
        layers.install()
        try:
            traced = measure.run_instance(case, i, gate, rec=rec,
                                          oracle_factory=layers.oracle_factory())
        finally:
            layers.uninstall()
            rec.instance = rec.visit = None
        gate.expect(f"instance {i} counters repeat", [
            (traced["counters"] == plain["counters"],
             f"traced {traced['counters']} != untraced {plain['counters']}"),
        ])
        counters.append(plain["counters"])
        values = measure.layer_metrics(rec, len(visits), case.inputs.n, traced)
        for stage in measure.TIMED_STAGES:
            if plain["times"][stage] and traced["times"][stage]:
                values[f"trace_overhead.{stage}"] = (
                    traced["times"][stage][0] - _median(plain["times"][stage]))
        visits.append(values)
    metrics = {}
    for name, *_ in measure.PER_LAYER:
        metrics[name] = _median(v[name] for v in visits if name in v)
    metrics.update(peaks)
    return metrics, counters, rec, layers.missing


# Runs of one seed that reach this many instances print the same counters digest.
DIGEST_INSTANCES = 4


def counters_digest(counters: list[dict]) -> str:
    payload = json.dumps(counters[:DIGEST_INSTANCES], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = load_package()
    w = WORKLOADS[args.workload]
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    gate = measure.Gate()
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        t0 = perf_counter()
        inputs = write_inputs(w, args.seed, workdir)
        gen_s = perf_counter() - t0
        case = measure.Case(modules, w, inputs, args.seed, workdir)
        if args.trace:
            metrics, counters, rec, missing = run_traced(case, gate, args.seconds, modules)
            units = {name: unit for name, unit, _, _ in measure.PER_LAYER}
        else:
            metrics, counters, samples, log = run_untraced(case, gate, args.seconds)
            units = {name: unit for name, unit, _, _ in measure.END_TO_END}

    print(
        f"workload {w.name} seed {args.seed}: n={inputs.n} m={inputs.m} k={w.k}"
        f" quotas={w.quota_rule} input_bytes={inputs.input_bytes}"
        f" inputs_written_s={gen_s:.3f} trace={args.trace}"
    )
    for name, value in metrics.items():
        extra = ""
        if not args.trace and name in measure.TIMED_STAGES:
            extra = f"  ({_tail(samples[name])})"
        print(f"  {name:32s} {value:14.6f} {units[name]}{extra}")
    if not args.trace:
        print(f"  stage times are scaled to a {calibrate.REFERENCE_S} s reference kernel;"
              " unscaled medians:")
        for name, value in log.items():
            print(f"  {name:32s} {value:14.6f} s")
    for i, c in enumerate(counters):
        print(f"  counters instance {i}: " + " ".join(f"{k}={v}" for k, v in sorted(c.items())))
    print(f"  counters digest of instances 0-{DIGEST_INSTANCES - 1}: {counters_digest(counters)}")
    held = [c.get("circle.settled") == c.get("gale_shapley.proposals_centers")
            for c in counters]
    print(f"  circle.settled == gale_shapley.proposals_centers on {sum(held)}/{len(held)} instances")
    print(f"  failed_frac {gate.failed_frac} ({gate.failed}/{gate.attempted} operations)")
    for failure in gate.failures:
        print(f"  FAILED {failure}")
    if args.trace:
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{w.name}-{args.seed}.json")
        rec.write_json(path, {
            "workload": w.name, "seed": args.seed, "unwrapped": missing,
            "counters": counters, "metrics": metrics,
        })
        print(f"  spans written to {os.path.relpath(path, ROOT)}"
              + (f"; not wrapped: {', '.join(missing)}" if missing else ""))

    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
