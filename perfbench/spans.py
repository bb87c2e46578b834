"""Span recorder and the per-layer instrumentation of the traced run.

Spans are recorded from the benchmark's own files: ``Layers.install`` swaps
wrappers into the package's module namespaces (and ``RoadGraph.from_edges``)
for the duration of a traced pass and ``uninstall`` puts the originals back,
so the untraced passes run the package exactly as shipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import process_time

# Every time the benchmark reports (stages and spans alike) is CPU seconds of
# its single-threaded process. On a shared host, wall time also counts the
# slices the scheduler gives to other processes; with two CPU-bound neighbours
# on a 2-core machine wall stage times grew 15-40% while CPU times stayed
# within 3%.
clock = process_time


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    instance: int | None = None  # the center set the span worked on
    visit: int | None = None  # the pass over it; a run visits an instance several times
    hot_s: float = 0.0  # time of aggregated hot calls made directly under this span
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans plus count/total aggregates for per-call hot paths.

    Each span keeps its parent, its instance and the visit (pass) it belongs
    to. Hot calls (oracle queries, single-source searches) are too many to
    keep one span each; ``hot`` folds them into a per-visit (count, total)
    pair and charges their time to the enclosing span, so self times stay
    exact.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.hot_totals: dict[tuple[int | None, str], list] = {}
        self.instance: int | None = None
        self.visit: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, clock(), parent=parent,
                               instance=self.instance, visit=self.visit))
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = clock()
        top = self._stack.pop()
        assert top == idx, "spans must close innermost first"

    def hot(self, name: str, seconds: float) -> None:
        agg = self.hot_totals.setdefault((self.visit, name), [0, 0.0])
        agg[0] += 1
        agg[1] += seconds
        if self._stack:
            self.spans[self._stack[-1]].hot_s += seconds

    def self_time(self, idx: int) -> float:
        """Duration minus the part of it covered by child spans and hot calls."""
        span = self.spans[idx]
        covered = _union_length(
            [(self.spans[c].start, self.spans[c].end) for c in span.children]
        )
        return span.duration - covered - span.hot_s

    def by_name(self, visit: int, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.visit == visit and s.name == name]

    def total(self, visit: int, name: str) -> float:
        return sum(self.spans[i].duration for i in self.by_name(visit, name))

    def total_self(self, visit: int, name: str) -> float:
        return sum(self.self_time(i) for i in self.by_name(visit, name))

    def hot_count(self, visit: int, name: str) -> int:
        return self.hot_totals.get((visit, name), [0, 0.0])[0]

    def hot_total(self, visit: int, name: str) -> float:
        return self.hot_totals.get((visit, name), [0, 0.0])[1]

    def write_json(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["spans"] = [
            {
                "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                "instance": s.instance, "visit": s.visit, "self_s": self.self_time(i),
            }
            for i, s in enumerate(self.spans)
        ]
        doc["hot"] = [
            {"visit": visit, "name": name, "count": agg[0], "total_s": agg[1]}
            for (visit, name), agg in self.hot_totals.items()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _span_wrapper(rec: SpanRecorder, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _hot_wrapper(rec: SpanRecorder, name: str, fn):
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.hot(name, clock() - t0)

    return wrapper


# (module, attribute, span name). A function imported by name into several
# modules is wrapped in each, so calls made by the CLI are attributed too.
SPAN_PATCHES = (
    ("graph", "parse_tsv", "graph.parse"),
    ("graph", "parse_dimacs", "graph.parse"),
    ("cli", "parse_tsv", "graph.parse"),
    ("cli", "parse_dimacs", "graph.parse"),
    ("graph", "components", "graph.components"),
    ("graph", "largest_component", "graph.largest_component"),
    ("cli", "largest_component", "graph.largest_component"),
    ("model", "compute_center_distances", "model.center_distances"),
    ("cli", "compute_center_distances", "model.center_distances"),
    ("gale_shapley", "compute_center_distances", "gale_shapley.prefs_dijkstra"),
    ("nnc", "compute_center_distances", "mutual.table"),
    ("model", "verify_stable", "model.verify_scan"),
    ("cli", "verify_stable", "model.verify_scan"),
    ("model", "assignment_to_tsv", "model.to_tsv"),
    ("cli", "assignment_to_tsv", "model.to_tsv"),
    ("model", "assignment_summary_json", "model.summary"),
    ("cli", "assignment_summary_json", "model.summary"),
    ("model", "parse_assignment_tsv", "model.parse_assignment"),
    ("cli", "parse_assignment_tsv", "model.parse_assignment"),
    ("gale_shapley", "build_preferences", "gale_shapley.build_preferences"),
    ("gale_shapley", "gs_centers_run", "gale_shapley.match_centers"),
    ("gale_shapley", "gs_nodes_run", "gale_shapley.match_nodes"),
    ("circle", "circle_growing_run", "circle.run"),
    ("bench", "circle_growing_run", "circle.run"),
    ("nnc", "nnc_run", "nnc.run"),
    ("nnc", "mutual_closest_run", "mutual.run"),
    ("render", "render_svg", "render.svg"),
    ("cli", "render_svg", "render.svg"),
)
HOT_PATCHES = (("model", "dijkstra", "graph.dijkstra"),)


class Layers:
    """Installs and removes the traced run's wrappers around package calls."""

    def __init__(self, modules: dict, rec: SpanRecorder):
        self._modules = modules
        self._rec = rec
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every patch target; a target the package no longer has is
        listed in ``missing`` and its layer reads 0 instead of failing the run."""
        assert not self._saved, "layers already installed"
        self.missing = []
        for patches, make in ((SPAN_PATCHES, _span_wrapper), (HOT_PATCHES, _hot_wrapper)):
            for mod_name, attr, span in patches:
                mod = self._modules[mod_name]
                original = getattr(mod, attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._saved.append((mod, attr, original))
                setattr(mod, attr, make(self._rec, span, original))
        road_graph = self._modules["graph"].RoadGraph
        original = road_graph.__dict__["from_edges"]
        self._saved.append((road_graph, "from_edges", original))
        wrapped = _span_wrapper(self._rec, "graph.from_edges", original.__func__)
        road_graph.from_edges = classmethod(wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def oracle_factory(self):
        """A wrapper around the public ``fast_oracle_factory`` for ``nnc_run``.

        Construction is a span; ``nearest`` and ``remove`` calls are hot
        aggregates. Center-side ``nearest`` includes the lazy label repairs.
        """
        rec = self._rec
        fast = self._modules["nnc"].fast_oracle_factory

        def factory(inst, side):
            prefix = "nnc.center_oracle" if side == "centers" else "nnc.node_oracle"
            idx = rec.open(prefix + ".init")
            try:
                inner = fast(inst, side)
            finally:
                rec.close(idx)
            return _TimedOracle(rec, prefix, inner)

        return factory


class _TimedOracle:
    def __init__(self, rec: SpanRecorder, prefix: str, inner):
        self._rec = rec
        self._inner = inner
        self._nearest_name = prefix + ".nearest"
        self._remove_name = prefix + ".remove"

    def nearest(self, q):
        t0 = clock()
        found = self._inner.nearest(q)
        self._rec.hot(self._nearest_name, clock() - t0)
        return found

    def remove(self, x):
        t0 = clock()
        self._inner.remove(x)
        self._rec.hot(self._remove_name, clock() - t0)
