"""Stable quota districting of weighted undirected graphs.

Every node of a connected graph is assigned to one of k quota-bearing
center nodes so that the matching is stable under shortest-path-distance
preferences. Because the preferences are symmetric and tie-broken into a
strict total order, the stable solution is unique, and the package ships
several independent solvers that all reach it: two deferred-acceptance
variants over materialized preference tables, an interleaved
circle-growing search, a nearest-neighbor chain over a pluggable dynamic
nearest-neighbor oracle, and a brute-force mutual-closest-pair
reference.
"""

from .bench import (
    BenchConfig,
    SplitMix64,
    assignment_digest,
    generate_grid,
    run_bench,
    sample_centers,
    solve,
    write_csv,
)
from .circle import circle_growing_run
from .gale_shapley import build_preferences
from .graph import (
    GraphError,
    ParseError,
    RoadGraph,
    dijkstra,
    largest_component,
    parse_dimacs,
    parse_tsv,
    write_tsv,
)
from .model import (
    DEFAULT_MEMORY_CAP_BYTES,
    Assignment,
    BlockingPair,
    DistanceMismatch,
    Instance,
    InstanceError,
    MemoryCapExceeded,
    QuotaViolation,
    Score,
    assignment_summary,
    assignment_summary_json,
    assignment_to_tsv,
    compute_center_distances,
    equal_quotas,
    member_ball_distances,
    parse_assignment_tsv,
    verify_stable,
)
from .nnc import OracleError, fast_oracle_factory, mutual_closest_run, nnc_run
from .render import PALETTE, render_geojson, render_svg

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BenchConfig",
    "BlockingPair",
    "DEFAULT_MEMORY_CAP_BYTES",
    "DistanceMismatch",
    "GraphError",
    "Instance",
    "InstanceError",
    "MemoryCapExceeded",
    "OracleError",
    "PALETTE",
    "ParseError",
    "QuotaViolation",
    "RoadGraph",
    "Score",
    "SplitMix64",
    "assignment_digest",
    "assignment_summary",
    "assignment_summary_json",
    "assignment_to_tsv",
    "build_preferences",
    "circle_growing_run",
    "compute_center_distances",
    "dijkstra",
    "equal_quotas",
    "fast_oracle_factory",
    "generate_grid",
    "largest_component",
    "member_ball_distances",
    "mutual_closest_run",
    "nnc_run",
    "parse_assignment_tsv",
    "parse_dimacs",
    "parse_tsv",
    "render_geojson",
    "render_svg",
    "run_bench",
    "sample_centers",
    "solve",
    "verify_stable",
    "write_csv",
    "write_tsv",
]
