"""Seeded workload inputs for the benchmark, as the text files a user would hold.

The generators do not call the package: a later change to the package can
not move the inputs. Randomness is splitmix64 with the same pinned steps as
``stabledistrict.bench`` (its module docstring), so ``sample_centers`` here
draws the same center sets as the package's CLI and ``bench`` module; the
benchmark's tests check that equality.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Folded into the run seed to draw the graph, apart from the center sets.
_GRAPH_STREAM = 0x67726170
# Nodes of the detached path appended to every road-skew graph.
ISLAND = 5


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        limit = ((1 << 64) // bound) * bound
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def derive_seed(seed: int, *parts: int) -> int:
    h = SplitMix64(seed).next_u64()
    for p in parts:
        h = SplitMix64((h ^ p) & MASK64).next_u64()
    return h


def sample_centers(n: int, k: int, seed: int) -> list[int]:
    """k distinct dense ids, a partial Fisher-Yates prefix of 0..n-1, sorted."""
    rng = SplitMix64(seed)
    arr = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        arr[i], arr[j] = arr[j], arr[i]
    return sorted(arr[:k])


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "grid-tsv" | "road-dimacs"
    width: int
    height: int
    k: int
    quota_rule: str  # "equal" | "zipf"
    why: str
    drop_pct: int = 0


# circle and nnc work varies by about 25% between random center sets, so a
# steady median needs a few dozen center sets per run: one visit (every
# solver, the verifier, the export and the CLI chain on a fresh center set) is
# kept near 1 s on a 2-core machine. Each workload keeps the cost profile its
# ``why`` names.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-ingest", kind="grid-tsv", width=64, height=64, k=8, quota_rule="equal",
            why="64x64 dyadic-jitter grid, TSV with #node coords: n=4096 m=8064 k=8, 310 KB,"
                " equal quotas; O(n) parse, normalize, connectivity, TSV and SVG export dominate",
        ),
        Workload(
            name="grid-manyk", kind="grid-tsv", width=32, height=32, k=64, quota_rule="equal",
            why="32x32 dyadic-jitter grid TSV: n=1024 m=1984 k=64, 74 KB, equal quotas; per-center"
                " work dominates: k Dijkstras, preference sorts, O(nk) verify scan, nnc explorers",
        ),
        Workload(
            name="road-skew", kind="road-dimacs", width=50, height=50, k=32,
            quota_rule="zipf", drop_pct=12,
            why="DIMACS .gr+.co of a 50x50 grid, 12% edges dropped, weights 1-100, 5-node island"
                " trimmed: n~2500 m~4330 k=32, 167 KB, Zipf quotas; exact ties, skewed matching",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The files of one workload under one seed, and what a solver sees."""

    graph_path: str
    co_path: str | None
    quota_path: str | None
    n: int  # nodes the instance has (after the component trim)
    m: int  # undirected edges the instance has
    input_bytes: int


def grid_tsv(width: int, height: int, seed: int) -> str:
    """Row-major grid with dyadic weights in [1, 2) and `#node` coordinates.

    Dyadic weights keep every path sum exact, so all solvers agree bit for bit.
    """
    rng = SplitMix64(seed)
    out = []
    for y in range(height):
        for x in range(width):
            u = y * width + x
            if x + 1 < width:
                out.append(f"{u}\t{u + 1}\t{1.0 + rng.next_below(1 << 20) / 1048576.0!r}")
            if y + 1 < height:
                out.append(f"{u}\t{u + width}\t{1.0 + rng.next_below(1 << 20) / 1048576.0!r}")
    for y in range(height):
        for x in range(width):
            out.append(f"#node {y * width + x} {float(x)!r} {float(y)!r}")
    return "\n".join(out) + "\n"


def _largest_component(n: int, edges: list[tuple[int, int]]) -> tuple[int, int]:
    """(nodes, edges) of the largest component, by union-find on 0-based ids."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    size: dict[int, int] = {}
    for x in range(n):
        r = find(x)
        size[r] = size.get(r, 0) + 1
    # Equal sizes go to the component with the smallest id, as the package does.
    root = max(size, key=lambda r: (size[r], -r))
    m = sum(1 for u, _ in edges if find(u) == root)
    return size[root], m


def zipf_quotas(n: int, k: int) -> list[int]:
    """q_i = max(1, floor(n * (1/(i+1)) / H_k)); the remainder goes to center 0."""
    h = sum(1.0 / (i + 1) for i in range(k))
    quotas = [max(1, int(n * (1.0 / (i + 1)) / h)) for i in range(k)]
    rest = n - sum(quotas)
    if rest < 0:
        raise ValueError(f"zipf quotas overflow n={n} at k={k}")
    quotas[0] += rest
    return quotas


def road_dimacs(
    width: int, height: int, drop_pct: int, k: int, seed: int
) -> tuple[str, str, str, int, int]:
    """(.gr text, .co text, quota text, n, m) of a grid with dropped edges.

    Each grid edge is dropped with probability drop_pct/100 and otherwise
    gets an integer weight in 1..100, written as two arcs. A detached path
    of ISLAND nodes follows the grid, as the small disconnected pieces of
    real road files do, so the component trim always removes something.
    n and m describe the largest component, which the quotas cover.
    """
    rng = SplitMix64(seed)
    edges: list[tuple[int, int]] = []
    arcs = []

    def arc(u: int, v: int) -> None:
        w = 1 + rng.next_below(100)
        edges.append((u, v))
        arcs.append(f"a {u + 1} {v + 1} {w}\na {v + 1} {u + 1} {w}")

    for y in range(height):
        for x in range(width):
            u = y * width + x
            for v, ok in ((u + 1, x + 1 < width), (u + width, y + 1 < height)):
                if ok and rng.next_below(100) >= drop_pct:
                    arc(u, v)
    n_grid = width * height
    for j in range(ISLAND - 1):
        arc(n_grid + j, n_grid + j + 1)
    n_all = n_grid + ISLAND
    gr = (
        f"c road-skew {width}x{height} drop {drop_pct}% island {ISLAND}\n"
        f"p sp {n_all} {2 * len(edges)}\n" + "\n".join(arcs) + "\n"
    )
    co = f"p aux sp co {n_all}\n" + "".join(
        f"v {y * width + x + 1} {x * 1000} {y * 1000}\n"
        for y in range(height) for x in range(width)
    ) + "".join(f"v {n_grid + j + 1} {(width + 1 + j) * 1000} 0\n" for j in range(ISLAND))
    n, m = _largest_component(n_all, edges)
    quotas = "".join(f"{q}\n" for q in zipf_quotas(n, k))
    return gr, co, quotas, n, m


def write_inputs(w: Workload, seed: int, directory: str) -> Inputs:
    """Write the workload's input files for this seed into ``directory``."""
    graph_seed = derive_seed(seed, _GRAPH_STREAM)

    def put(name: str, text: str) -> str:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return path

    if w.kind == "grid-tsv":
        text = grid_tsv(w.width, w.height, graph_seed)
        n = w.width * w.height
        m = (w.width - 1) * w.height + w.width * (w.height - 1)
        return Inputs(put("graph.tsv", text), None, None, n, m, len(text.encode()))
    gr, co, quotas, n, m = road_dimacs(w.width, w.height, w.drop_pct, w.k, graph_seed)
    return Inputs(
        put("graph.gr", gr), put("graph.co", co), put("quotas.txt", quotas),
        n, m, len(gr.encode()) + len(co.encode()),
    )


def instance_centers(n: int, k: int, seed: int, i: int) -> list[int]:
    """Dense center ids of instance i: the bench module's center set i under ``seed``."""
    return sample_centers(n, k, derive_seed(seed, k, i))
