"""Command-line interface: solve, verify, bench, render, generate.

Exit codes are part of the contract: 0 success, 1 unreadable input
(parse errors, id mismatches, usage errors), 2 infeasible instance (quota sum, bad
centers, disconnected graph without --largest-component), 3 memory-cap
refusal or out of memory, 4 verification found the assignment unstable.
Given fixed seeds, every invocation writes byte-identical TSV/CSV/SVG/GeoJSON
files; wall times go to stderr or, in bench CSV, to the one column documented
as nondeterministic.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from collections import Counter
from contextlib import nullcontext
from itertools import chain
from typing import Iterator

from . import bench as bench_mod
from .graph import GraphError, RoadGraph, largest_component, parse_dimacs, parse_tsv, write_tsv
from .model import (
    DEFAULT_MEMORY_CAP_BYTES,
    BlockingPair,
    DistanceMismatch,
    Instance,
    InstanceError,
    MemoryCapExceeded,
    QuotaViolation,
    assignment_from_rows,
    assignment_summary_json,
    assignment_to_tsv,
    compute_center_distances,  # unused here; perfbench/spans.py wraps cli.compute_center_distances
    equal_quotas,
    member_ball_distances,
    parse_assignment_tsv,
    read_assignment_rows,
    verify_stable,
)
from .render import render_geojson, render_svg


def _grid(args) -> RoadGraph:
    """The grid ``--grid WxH`` names, jittered by ``--jitter-seed``."""
    try:
        width, height = map(int, args.grid.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad grid spec {args.grid!r} (expected WxH)") from None
    return bench_mod.generate_grid(width, height, args.jitter_seed)


def _text_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 text file; a decode error names the file. Lines
    are read 64 KiB at a time, so the check costs nothing per line."""

    def chunks() -> Iterator[list[str]]:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                while chunk := fh.readlines(1 << 16):
                    yield chunk
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None

    return chain.from_iterable(chunks())


def _load_graph(args) -> RoadGraph:
    """The graph a command names: bench's --grid, or the graph file beside
    its optional .co file; --largest-component trims it and says so on stderr."""
    co = getattr(args, "co", None)
    if getattr(args, "grid", None) is not None:
        g = _grid(args)
    elif co is not None and not args.graph.endswith(".gr"):
        raise ValueError(f"coordinate file {co} needs a DIMACS .gr graph, not {args.graph}")
    elif not args.graph.endswith(".gr"):
        g = parse_tsv(_text_lines(args.graph))
    else:
        g = parse_dimacs(_text_lines(args.graph), _text_lines(co) if co else None)
    if getattr(args, "largest_component", False):
        trimmed = largest_component(g)
        if trimmed.node_count != g.node_count:
            print(
                f"largest-component: kept {trimmed.node_count} of {g.node_count} nodes,"
                f" {trimmed.edge_count} of {g.edge_count} edges",
                file=sys.stderr,
            )
        g = trimmed
    return g


def _read_int_lines(path: str) -> list[int]:
    values = []
    for line_no, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ValueError(f"{path} line {line_no}: expected an integer, got {line!r}") from None
    return values


def _load_instance(args) -> Instance:
    """The instance solve and verify share: the graph, then centers, then quotas."""
    g = _load_graph(args)
    if args.random_centers is not None:
        centers = bench_mod.sample_centers(g.node_count, args.random_centers, args.seed)
    else:
        centers = []
        for oid in _read_int_lines(args.centers):
            if not g.has_original_id(oid):
                raise InstanceError(f"center id {oid} not present in the graph")
            centers.append(g.dense_id(oid))
    if args.quotas == "equal":
        quotas = equal_quotas(g.node_count, len(centers))
    else:
        quotas = _read_int_lines(args.quotas)
        if len(quotas) != len(centers):
            raise InstanceError(f"quota file has {len(quotas)} entries for {len(centers)} centers")
    return Instance(g, centers, quotas)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _check_writable(path: str | None) -> None:
    """Raise the error that writing ``path`` would raise, but write nothing.

    A file this check creates is removed again, so a run that fails later
    leaves no new file, and an existing one keeps its bytes.
    """
    if path is None or path == "-":
        return
    created = not os.path.lexists(path)
    open(path, "a").close()
    if created:
        os.remove(path)


def _check_outputs(args) -> None:
    """Check solve's outputs before the solve, which a bad one would waste:
    each must be writable, no two may name one file and at most one may be
    stdout, or the later write would clobber or interleave with the earlier."""
    claimed: dict[str, str] = {}
    for flag, path in (("-o", args.output or "-"), ("--summary", args.summary), ("--trace", args.trace)):
        if not path:
            continue
        key = path if path == "-" else os.path.realpath(path)
        if key not in claimed:
            claimed[key] = flag
        elif path == "-" and claimed[key] == "-o":
            raise ValueError(f"{flag} - needs -o FILE: the assignment goes to stdout without it")
        else:
            where = "stdout" if path == "-" else path
            raise ValueError(f"{claimed[key]} and {flag} both write to {where}: give each its own file")
        _check_writable(path)


def cmd_solve(args) -> int:
    if args.trace and args.algo != "circle":
        raise ValueError(f"--trace records circle-growing events; --algo {args.algo} writes none")
    _check_outputs(args)
    inst = _load_instance(args)
    if not args.trace:
        trace_cm = nullcontext()
    elif args.trace == "-":
        trace_cm = nullcontext(sys.stdout)
    else:
        trace_cm = open(args.trace, "w", encoding="utf-8", newline="")
    with trace_cm as trace_fh:
        start = time.perf_counter()
        assignment, _ = bench_mod.solve(inst, args.algo, memory_cap_bytes=args.memory_cap, trace=trace_fh)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(
        f"n={inst.graph.node_count} m={inst.graph.edge_count} k={inst.k}"
        f" algorithm={args.algo} time_ms={elapsed_ms:.1f}",
        file=sys.stderr,
    )
    _write_text(args.output, assignment_to_tsv(inst, assignment))
    if args.summary:
        _write_text(args.summary, assignment_summary_json(inst, assignment))
    return 0


def cmd_verify(args) -> int:
    inst = _load_instance(args)
    g, centers = inst.graph, inst.centers
    assignment = parse_assignment_tsv("".join(_text_lines(args.assignment)), g, centers)
    verdict = verify_stable(inst, assignment, member_ball_distances(inst, assignment))
    if verdict is None:
        print("STABLE")
        return 0
    if isinstance(verdict, QuotaViolation):
        center_id = g.original_ids[centers[verdict.center]]
        print(
            f"UNSTABLE quota violation: center {center_id}"
            f" expected {verdict.expected} nodes, got {verdict.actual}"
        )
        return 4
    if isinstance(verdict, DistanceMismatch):
        node_id = g.original_ids[verdict.node]
        print(
            f"UNSTABLE distance mismatch: node {node_id} is assigned to center"
            f" {g.original_ids[centers[verdict.center]]} at distance {verdict.claimed!r},"
            f" but the true distance is {verdict.true!r}"
        )
        return 4
    assert isinstance(verdict, BlockingPair)
    node_id = g.original_ids[verdict.node]
    center_id = g.original_ids[centers[verdict.center]]
    print(
        f"UNSTABLE blocking pair: node {node_id} and center {center_id}"
        f" are at distance {verdict.pair_dist!r}, but node {node_id} is assigned"
        f" at distance {verdict.current_dist!r} and center {center_id}'s worst"
        f" member (node {g.original_ids[verdict.worst_node]}) sits at"
        f" distance {verdict.worst_dist!r}"
    )
    return 4


def cmd_bench(args) -> int:
    cfg = bench_mod.BenchConfig(
        k_values=args.k,
        runs=args.runs,
        seed=args.seed,
        algorithms=tuple(args.algos.split(",")),
        memory_cap_bytes=args.memory_cap,
    )
    _check_writable(args.output)  # before the sweep, which an unwritable path would waste
    if args.grid is None:
        name = os.path.basename(args.graph)
    elif args.jitter_seed is None:
        name = f"grid:{args.grid}"
    else:
        name = f"grid:{args.grid}:jitter:{args.jitter_seed}"
    csv = io.StringIO()
    bench_mod.write_csv(bench_mod.run_bench(_load_graph(args), name, cfg), csv)
    _write_text(args.output, csv.getvalue())
    return 0


def cmd_render(args) -> int:
    g = _load_graph(args)
    rows = read_assignment_rows("".join(_text_lines(args.assignment)))
    # Reconstruct the instance from the assignment itself: centers are the
    # distinct assigned center ids (ascending), quotas their member counts.
    members = dict(sorted(Counter(center_id for _, _, center_id, _ in rows).items()))
    for oid in members:
        if not g.has_original_id(oid):
            raise ValueError(f"assignment center id {oid} not present in the graph")
    centers = [g.dense_id(oid) for oid in members]
    assignment = assignment_from_rows(rows, g, centers)  # coverage errors before quota ones, as in verify
    inst = Instance(g, centers, list(members.values()))
    if args.output.endswith(".geojson") or args.output.endswith(".json"):
        _write_text(args.output, render_geojson(inst, assignment))
    else:
        _write_text(args.output, render_svg(inst, assignment))
    return 0


def cmd_generate(args) -> int:
    g = _grid(args)
    if not all(g.adjacency):
        raise ValueError(f"grid {args.grid} has a node without edges, which a TSV edge list cannot express")
    _write_text(args.output, write_tsv(g))
    return 0


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph file (.gr DIMACS, otherwise TSV edge list)")
    p.add_argument("co", nargs="?", default=None, help="DIMACS coordinate file (.gr graphs only)")
    p.add_argument(
        "--largest-component", action="store_true",
        help="solve on the largest connected component (prints the trim to stderr)",
    )


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--centers", help="file of center node ids, one per line")
    group.add_argument("--random-centers", type=int, metavar="K", help="draw K random centers")
    p.add_argument("--seed", type=int, default=0, help="seed for --random-centers")
    p.add_argument(
        "--quotas", default="equal",
        help="'equal' or a file of per-center quotas (default: equal)",
    )


def _byte_count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number of bytes, got {text!r}")
    return int(text)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _add_memory_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--memory-cap", type=_byte_count, default=DEFAULT_MEMORY_CAP_BYTES, metavar="BYTES",
        help="refuse the table solvers when their memory estimate exceeds this many bytes",
    )
    group.add_argument(
        "--no-memory-cap", action="store_const", const=None, dest="memory_cap",
        help="disable the memory cap",
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one line and exit 1: argparse's code 2 means infeasible here
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stabledistrict",
        description="Stable quota districting of weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a stable assignment")
    _add_graph_args(p_solve)
    _add_instance_args(p_solve)
    _add_memory_args(p_solve)
    p_solve.add_argument(
        "--algo", required=True, choices=bench_mod.ALGORITHM_NAMES, help="solver to run"
    )
    p_solve.add_argument(
        "--trace",
        help="write circle-growing events to this file, or to stdout with '-' and -o FILE"
        " (--algo circle only)",
    )
    p_solve.add_argument("-o", "--output", default=None, help="assignment TSV (default stdout)")
    p_solve.add_argument("--summary", default=None, help="write a JSON summary here")
    p_solve.set_defaults(handler=cmd_solve)

    p_verify = sub.add_parser("verify", help="check an assignment for stability")
    _add_graph_args(p_verify)
    _add_instance_args(p_verify)
    p_verify.add_argument("--assignment", required=True, help="assignment TSV to check")
    p_verify.set_defaults(handler=cmd_verify)

    p_bench = sub.add_parser("bench", help="run the seeded benchmark sweep")
    p_bench.add_argument("graph", nargs="?", default=None, help="graph file")
    p_bench.add_argument("--grid", default=None, metavar="WxH", help="use a generated grid instead")
    p_bench.add_argument("--jitter-seed", type=int, default=None, help="jitter grid weights")
    p_bench.add_argument("--k", required=True, type=_int_list, help="comma-separated center counts")
    p_bench.add_argument("--runs", type=int, default=10, help="center sets per k (default 10)")
    p_bench.add_argument(
        "--algos", default=",".join(bench_mod.ALGORITHM_NAMES),
        help="comma-separated algorithms (default: all)",
    )
    p_bench.add_argument("--seed", type=int, default=0, help="master seed")
    p_bench.add_argument("--largest-component", action="store_true")
    _add_memory_args(p_bench)
    p_bench.add_argument("-o", "--output", default=None, help="CSV output (default stdout)")
    p_bench.set_defaults(handler=cmd_bench)

    p_render = sub.add_parser("render", help="draw an assignment as SVG or GeoJSON")
    _add_graph_args(p_render)
    p_render.add_argument("--assignment", required=True, help="assignment TSV to draw")
    p_render.add_argument(
        "-o", "--output", required=True,
        help="output path; .geojson/.json selects GeoJSON, anything else SVG",
    )
    p_render.set_defaults(handler=cmd_render)

    p_gen = sub.add_parser("generate", help="emit a grid graph as TSV")
    p_gen.add_argument("--grid", required=True, metavar="WxH")
    p_gen.add_argument("--jitter-seed", type=int, default=None)
    p_gen.add_argument("-o", "--output", default=None, help="TSV output (default stdout)")
    p_gen.set_defaults(handler=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and (args.graph is None) == (args.grid is None):
        parser.error("bench needs exactly one of a graph file or --grid")
    if args.command == "bench" and args.graph is not None and args.jitter_seed is not None:
        parser.error("--jitter-seed jitters a generated grid: use it with --grid only")
    try:
        return args.handler(args)
    except InstanceError as exc:
        print(f"error: infeasible instance: {exc}", file=sys.stderr)
        return 2
    except MemoryCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory: the instance is too large for this machine", file=sys.stderr)
        return 3
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
