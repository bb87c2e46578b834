from __future__ import annotations

import json

import pytest

from stabledistrict import (
    Instance,
    RoadGraph,
    equal_quotas,
    parse_dimacs,
    render_geojson,
    render_svg,
    solve_circle_growing,
    solve_mutual_closest,
)
from stabledistrict.bench import SplitMix64, generate_grid, sample_centers
from stabledistrict.render import PALETTE, SvgOptions, district_color

from helpers import random_grid_instance, reference_render_svg


def _p3_with_coords():
    return RoadGraph.from_edges(
        [(0, 1, 1.0), (1, 2, 1.0)],
        coords={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)},
    )


def _p6_with_coords():
    return RoadGraph.from_edges(
        [(i, i + 1, 1.0) for i in range(5)],
        coords={i: (float(i), 0.0) for i in range(6)},
    )


def test_single_district_renders_one_path_one_marker():
    g = _p3_with_coords()
    inst = Instance(g, [1], [3])
    svg = render_svg(inst, solve_mutual_closest(inst))
    assert svg.count("<path ") == 1
    assert svg.count("<circle ") == 1
    assert svg.count(district_color(0)) == 2  # the path and the marker


def test_two_districts_render_two_colored_paths_and_one_gray():
    g = _p6_with_coords()
    inst = Instance(g, [0, 5], [3, 3])
    a = solve_mutual_closest(inst)
    svg = render_svg(inst, a)
    assert svg.count("<path ") == 3  # two district paths + the boundary edge
    assert svg.count("#9e9e9e") == 1
    assert svg.count("<circle ") == 2


def test_svg_is_deterministic_and_flips_y():
    g = RoadGraph.from_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.5)],
        coords={0: (0.0, 0.0), 1: (1.0, 2.0), 2: (2.0, 0.0)},
    )
    inst = Instance(g, [0], [3])
    a = solve_mutual_closest(inst)
    svg1 = render_svg(inst, a)
    svg2 = render_svg(inst, a)
    assert svg1 == svg2
    assert svg1.startswith('<?xml version="1.0"')
    # node 1 has the greatest y, so it must map to the smallest screen y
    assert 'viewBox="0 0 1000.00' in svg1


def test_svg_requires_coordinates(p6):
    with pytest.raises(ValueError, match="no coordinates"):
        render_svg(p6, solve_mutual_closest(p6))


def test_svg_options_control_size():
    g = _p3_with_coords()
    inst = Instance(g, [1], [3])
    svg = render_svg(inst, solve_mutual_closest(inst), SvgOptions(width=500.0))
    assert 'viewBox="0 0 500.00' in svg


def test_svg_bytes_match_the_edge_by_edge_reference():
    for seed in range(60):
        inst = random_grid_instance(seed)
        a = solve_circle_growing(inst)
        assert render_svg(inst, a) == reference_render_svg(inst, a), seed


def _dimacs_with_coordinates(w: int, h: int, seed: int) -> tuple[str, str]:
    """A w x h grid in DIMACS form with irregular microdegree coordinates."""
    rng = SplitMix64(seed)
    arcs = []
    for y in range(h):
        for x in range(w):
            u = y * w + x + 1
            for v, ok in ((u + 1, x + 1 < w), (u + w, y + 1 < h)):
                if ok:
                    arcs.append(f"a {u} {v} {1 + rng.next_below(100)}")
    gr = f"p sp {w * h} {len(arcs)}\n" + "\n".join(arcs) + "\n"
    co = "".join(
        f"v {y * w + x + 1} {-73990000 + 1000 * x + rng.next_below(700)}"
        f" {40700000 + 1000 * y + rng.next_below(700)}\n"
        for y in range(h) for x in range(w)
    )
    return gr, co


def test_svg_bytes_match_the_reference_on_dimacs_coordinates_and_options():
    gr, co = _dimacs_with_coordinates(9, 7, 3)
    g = parse_dimacs(gr, co)
    inst = Instance(g, sample_centers(g.node_count, 5, 11), equal_quotas(g.node_count, 5))
    a = solve_circle_growing(inst)
    assert render_svg(inst, a) == reference_render_svg(inst, a)
    opts = SvgOptions(
        width=640.0, margin_frac=0.05, edge_width=1.5, marker_radius=3.25,
        palette=("#112233", "#445566", "#778899"),
    )
    svg = render_svg(inst, a, opts)
    assert svg == reference_render_svg(inst, a, opts)
    assert 'viewBox="0 0 640.00' in svg and 'r="3.25"' in svg


def test_palette_has_enough_distinct_colors():
    assert len(PALETTE) >= 6
    assert len(set(PALETTE)) == len(PALETTE)
    assert district_color(len(PALETTE)) == PALETTE[0]  # wraps modulo length


def test_geojson_feature_counts_and_properties():
    g = generate_grid(3, 3)
    inst = Instance(g, [0, 8], [5, 4])
    a = solve_mutual_closest(inst)
    doc = json.loads(render_geojson(inst, a))
    assert doc["type"] == "FeatureCollection"
    features = doc["features"]
    assert len(features) == 9 + 2
    nodes = features[:9]
    for u, f in enumerate(nodes):
        assert f["type"] == "Feature"
        assert f["geometry"]["type"] == "Point"
        assert len(f["geometry"]["coordinates"]) == 2
        assert f["properties"]["center"] == a.match[u]
        assert f["properties"]["distance"] == a.dist[u]
    centers = features[9:]
    assert [f["properties"]["role"] for f in centers] == ["center", "center"]
    assert [f["properties"]["quota"] for f in centers] == [5, 4]


def test_geojson_requires_coordinates(p6):
    with pytest.raises(ValueError, match="no coordinates"):
        render_geojson(p6, solve_mutual_closest(p6))


def test_geojson_is_deterministic():
    g = generate_grid(4, 2)
    inst = Instance(g, [0, 7], [4, 4])
    a = solve_mutual_closest(inst)
    assert render_geojson(inst, a) == render_geojson(inst, a)
