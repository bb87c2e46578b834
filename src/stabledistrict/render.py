"""Static district-map export: SVG drawings and GeoJSON point collections.

Edges take their district's color when both endpoints share a center and
neutral gray across district boundaries; centers get enlarged markers.
Districts can be disconnected and are drawn as-is. Output is a pure
function of its inputs, byte for byte.
"""

from __future__ import annotations

import json

from .model import Assignment, Instance

# 12 visually distinct colors, reused modulo the palette's length.
PALETTE = (
    "#e6194b", "#3cb44b", "#ffc400", "#4363d8", "#f58231", "#911eb4",
    "#42d4f4", "#f032e6", "#9a6324", "#000075", "#808000", "#469990",
)
BOUNDARY_COLOR = "#9e9e9e"
# The map's fixed geometry, in SVG user units.
WIDTH = 1000.0
MARGIN = WIDTH * 0.02  # on every side
EDGE_WIDTH = 2.0
MARKER_RADIUS = 6.0


def district_color(center_index: int) -> str:
    return PALETTE[center_index % len(PALETTE)]


def render_svg(inst: Instance, a: Assignment) -> str:
    """SVG document with one path per district, a boundary path, and markers.

    The map is WIDTH units wide; the viewBox is fitted to the coordinate
    bounds with the y axis flipped into screen convention. Raises
    ValueError when the graph carries no coordinates.
    """
    g = inst.graph
    if g.coords is None:
        raise ValueError("graph has no coordinates; supply a .co file or #node lines")
    xs, ys = zip(*g.coords)
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max_x - min_x or 1.0
    span_y = max_y - min_y or 1.0
    scale = (WIDTH - 2.0 * MARGIN) / span_x
    height = span_y * scale + 2.0 * MARGIN

    # Each node's screen position is formatted once; edges and markers share it.
    point = [
        f"{MARGIN + (x - min_x) * scale:.2f} {MARGIN + (max_y - y) * scale:.2f}"
        for x, y in g.coords
    ]
    match = a.match
    segments: dict[int, list[str]] = {}
    boundary: list[str] = []
    for u, (arcs, pu, cu) in enumerate(zip(g.adjacency, point, match)):
        for v, _ in arcs:
            if v < u:
                continue
            if cu == match[v]:
                segments.setdefault(cu, []).append(f"M{pu} L{point[v]}")
            else:
                boundary.append(f"M{pu} L{point[v]}")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH:.2f} {height:.2f}"'
        f' width="{WIDTH:.2f}" height="{height:.2f}">',
        f'<g fill="none" stroke-width="{EDGE_WIDTH:.2f}" stroke-linecap="round">',
    ]
    for c in range(inst.k):
        if c in segments:
            lines.append(f'<path stroke="{district_color(c)}" d="{" ".join(segments[c])}"/>')
    if boundary:
        lines.append(f'<path stroke="{BOUNDARY_COLOR}" d="{" ".join(boundary)}"/>')
    lines.append("</g>")
    lines.append('<g stroke="#000000" stroke-width="1.00">')
    for c, center_node in enumerate(inst.centers):
        cx, cy = point[center_node].split(" ")
        lines.append(f'<circle cx="{cx}" cy="{cy}" r="{MARKER_RADIUS:.2f}" fill="{district_color(c)}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_geojson(inst: Instance, a: Assignment) -> str:
    """GeoJSON FeatureCollection: one Point per node, one per center.

    Node features carry {center, distance}; center features carry
    {role: "center", quota}. Raises ValueError without coordinates.
    """
    g = inst.graph
    if g.coords is None:
        raise ValueError("graph has no coordinates; supply a .co file or #node lines")
    features = []
    for u in range(g.node_count):
        x, y = g.coords[u]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [x, y]},
                "properties": {"center": a.match[u], "distance": a.dist[u]},
            }
        )
    for c, center_node in enumerate(inst.centers):
        x, y = g.coords[center_node]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [x, y]},
                "properties": {"role": "center", "quota": inst.quotas[c]},
            }
        )
    doc = {"type": "FeatureCollection", "features": features}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
