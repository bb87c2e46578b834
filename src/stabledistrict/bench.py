"""Seeded experiment harness: random center sets, repeated timed runs,
CSV records.

Randomness is pinned to splitmix64 so that center sets reproduce
byte-for-byte across platforms and implementations:

* state advances by adding 0x9E3779B97F4A7C15 (mod 2^64); each output is
  the finalizer z ^= z>>30, z *= 0xBF58476D1CE4E5B9, z ^= z>>27,
  z *= 0x94D049BB133111EB, z ^= z>>31 (all mod 2^64);
* bounded draws use rejection sampling: draw 64-bit values until below
  floor(2^64 / bound) * bound, then reduce mod bound;
* the center set for (k, set_index) under master seed s uses a generator
  seeded with derive_seed(s, k, set_index) as defined below;
* centers are a partial Fisher-Yates prefix of 0..n-1, reported sorted.

For each (k, center set) the harness runs every requested algorithm on
the identical instance. Wall time covers solving only (preference
construction included for the deferred-acceptance solvers, graph loading
excluded). A run refused by the memory cap yields a normal record with
outcome "refused-memory" instead of an error.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import IO

from .circle import circle_growing_run
from .gale_shapley import (
    DEFAULT_MEMORY_CAP_BYTES,
    build_preferences,
    gs_centers_run,
    gs_nodes_run,
)
from .graph import RoadGraph, largest_component, parse_dimacs, parse_tsv
from .model import (
    Assignment,
    Instance,
    InstanceError,
    MemoryCapExceeded,
    equal_quotas,
)
from .nnc import mutual_closest_run, nnc_run

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

ALGORITHM_NAMES = ("gs-centers", "gs-nodes", "circle", "nnc", "mutual")

CSV_HEADER = "graph,n,m,k,seed,center_set,algorithm,time_ms,work,outcome,digest"


class SplitMix64:
    """The splitmix64 generator; see the module docstring for the exact steps."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Unbiased draw from 0..bound-1 by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // bound) * bound
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def derive_seed(seed: int, *parts: int) -> int:
    """Per-configuration subseed: fold each part into a fresh splitmix output."""
    h = SplitMix64(seed).next_u64()
    for p in parts:
        h = SplitMix64((h ^ p) & MASK64).next_u64()
    return h


def sample_centers(n: int, k: int, seed: int) -> list[int]:
    """k distinct node ids, uniform without replacement, sorted ascending."""
    if not 1 <= k <= n:
        raise InstanceError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = SplitMix64(seed)
    arr = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        arr[i], arr[j] = arr[j], arr[i]
    return sorted(arr[:k])


def jittered_weight(rng: SplitMix64) -> float:
    """Uniform dyadic weight in [1, 2): 1 + j/2^20 with 20 random bits.

    Multiples of 2^-20 keep every path sum of desk-scale graphs exact in
    binary64, so shortest-path distances are identical no matter which
    endpoint a search starts from or in which order sums accumulate.
    """
    return 1.0 + rng.next_below(1 << 20) / 1048576.0


def generate_grid(width: int, height: int, jitter_seed: int | None = None) -> RoadGraph:
    """Axis-aligned grid graph with coordinates; unit or jittered weights.

    Nodes are row-major (id = y*width + x) with coords (x, y). Edges are
    emitted per node, right neighbor then down neighbor, which fixes the
    order of jitter draws.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    rng = SplitMix64(jitter_seed) if jitter_seed is not None else None
    edges: list[tuple[int, int, float]] = []
    for y in range(height):
        for x in range(width):
            u = y * width + x
            if x + 1 < width:
                w = jittered_weight(rng) if rng is not None else 1.0
                edges.append((u, u + 1, w))
            if y + 1 < height:
                w = jittered_weight(rng) if rng is not None else 1.0
                edges.append((u, u + width, w))
    coords = {
        y * width + x: (float(x), float(y)) for y in range(height) for x in range(width)
    }
    return RoadGraph.from_edges(edges, node_ids=range(width * height), coords=coords)


def load_graph_source(source: str) -> tuple[str, RoadGraph]:
    """Resolve a graph source: 'grid:WxH[:jitter:SEED]' or a file path."""
    if source.startswith("grid:"):
        parts = source.split(":")
        dims = parts[1].lower().split("x")
        if len(dims) != 2:
            raise ValueError(f"bad grid spec {source!r} (expected grid:WxH)")
        width, height = int(dims[0]), int(dims[1])
        jitter_seed = None
        if len(parts) == 4 and parts[2] == "jitter":
            jitter_seed = int(parts[3])
        elif len(parts) != 2:
            raise ValueError(f"bad grid spec {source!r}")
        return source, generate_grid(width, height, jitter_seed)
    with open(source, "r", encoding="utf-8") as fh:
        if source.endswith(".gr"):
            g = parse_dimacs(fh)
        else:
            g = parse_tsv(fh)
    return os.path.basename(source), g


@dataclass(frozen=True)
class BenchConfig:
    source: str
    k_values: tuple[int, ...]
    runs: int = 10
    seed: int = 0
    algorithms: tuple[str, ...] = ALGORITHM_NAMES
    memory_cap_bytes: int | None = DEFAULT_MEMORY_CAP_BYTES
    use_largest_component: bool = False

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k values must be >= 1")
        unknown = set(self.algorithms) - set(ALGORITHM_NAMES)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")


@dataclass(frozen=True)
class BenchRecord:
    graph: str
    n: int
    m: int
    k: int
    seed: int
    center_set: int
    algorithm: str
    time_ms: float | None
    work: int | None
    outcome: str  # "ok" | "refused-memory"
    digest: str

    def csv_row(self) -> str:
        time_field = f"{self.time_ms:.3f}" if self.time_ms is not None else ""
        work_field = str(self.work) if self.work is not None else ""
        return (
            f"{self.graph},{self.n},{self.m},{self.k},{self.seed},"
            f"{self.center_set},{self.algorithm},{time_field},{work_field},"
            f"{self.outcome},{self.digest}"
        )


def assignment_digest(a: Assignment) -> str:
    """Stable 64-bit hex digest of the match array (sha256 prefix)."""
    payload = ",".join(map(str, a.match)).encode("ascii")
    return hashlib.sha256(payload).hexdigest()[:16]


def solve(
    inst: Instance,
    algo: str,
    *,
    memory_cap_bytes: int | None = DEFAULT_MEMORY_CAP_BYTES,
    trace: IO[str] | None = None,
) -> tuple[Assignment, int]:
    """Run the solver named ``algo`` (one of ``ALGORITHM_NAMES``); returns
    (assignment, work counter).

    Work counters: proposals for the deferred-acceptance solvers, settle
    events for circle growing, label queries (n at setup plus one per stale
    label) plus the k center removals for the chain solver, heap pops for
    the mutual-closest reference (equal to circle's settle events).
    ``memory_cap_bytes`` bounds the table solvers (None lifts the cap), and
    ``trace`` receives circle growing's events.
    """
    if algo == "gs-centers":
        prefs = build_preferences(inst, memory_cap_bytes=memory_cap_bytes)
        run = gs_centers_run(inst, prefs)
        return run.assignment, run.proposals
    if algo == "gs-nodes":
        prefs = build_preferences(inst, memory_cap_bytes=memory_cap_bytes)
        run = gs_nodes_run(inst, prefs)
        return run.assignment, run.proposals
    if algo == "circle":
        run = circle_growing_run(inst, trace=trace)
        return run.assignment, run.settled_total
    if algo == "nnc":
        run = nnc_run(inst)
        return run.assignment, run.oracle_queries + run.oracle_updates
    if algo == "mutual":
        run = mutual_closest_run(inst, memory_cap_bytes=memory_cap_bytes)
        return run.assignment, run.pops
    raise ValueError(f"unknown algorithm {algo!r}")


def _bench_instance(
    graph: RoadGraph, cfg: BenchConfig, k: int, set_index: int
) -> Instance:
    centers = sample_centers(graph.node_count, k, derive_seed(cfg.seed, k, set_index))
    return Instance(graph, centers, equal_quotas(graph.node_count, k))


def _run_cell(
    graph: RoadGraph, name: str, cfg: BenchConfig, k: int, set_index: int
) -> list[BenchRecord]:
    inst = _bench_instance(graph, cfg, k, set_index)
    records = []
    for algo in cfg.algorithms:
        start = time.perf_counter()
        try:
            assignment, work = solve(inst, algo, memory_cap_bytes=cfg.memory_cap_bytes)
        except MemoryCapExceeded:
            records.append(
                BenchRecord(
                    graph=name, n=graph.node_count, m=graph.edge_count, k=k,
                    seed=cfg.seed, center_set=set_index, algorithm=algo,
                    time_ms=None, work=None, outcome="refused-memory", digest="",
                )
            )
            continue
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        records.append(
            BenchRecord(
                graph=name, n=graph.node_count, m=graph.edge_count, k=k,
                seed=cfg.seed, center_set=set_index, algorithm=algo,
                time_ms=elapsed_ms, work=work, outcome="ok",
                digest=assignment_digest(assignment),
            )
        )
    return records


def run_bench(cfg: BenchConfig) -> list[BenchRecord]:
    """Execute the full sweep; records appear in (k, center_set, algorithm) order."""
    name, graph = load_graph_source(cfg.source)
    if cfg.use_largest_component:
        graph = largest_component(graph)
    n = graph.node_count
    for k in cfg.k_values:
        if k > n:
            raise InstanceError(f"k={k} exceeds node count {n}")
    records: list[BenchRecord] = []
    for k in cfg.k_values:
        for s in range(cfg.runs):
            records.extend(_run_cell(graph, name, cfg, k, s))
    return records


def write_csv(records: list[BenchRecord], fh: IO[str]) -> None:
    """Write records under the pinned header."""
    fh.write(CSV_HEADER + "\n")
    for record in records:
        fh.write(record.csv_row() + "\n")
