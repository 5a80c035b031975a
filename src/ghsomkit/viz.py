"""Static SVG views of a trained hierarchy.

Two renderers, both pure functions returning ``(svg_text, geometry)``:

* cluster feature map — nested squarified treemap; every unit becomes a
  rectangle inside its parent's rectangle with area proportional to its
  sample count, filled by a per-cluster feature value.
* cluster distribution map — one circle per leaf cluster placed at its
  grid-derived unit-square coordinates, sized by sqrt(count), colored by
  feature or majority label (opacity = label purity).

Leaf coordinates follow the recursive grid subdivision: a map at level i
splits its cell into rows_i x cols_i, so cell width/height are
w_i = w_{i-1}/cols_i and h_i = h_{i-1}/rows_i (starting from the unit
square), and a leaf's center is the accumulated offset plus half its own
cell. Exact rational arithmetic keeps the geometry free of rounding
artifacts.

The geometry dict mirrors everything the SVG shows (bounds, centers,
radii, feature values) so tests and downstream tooling never have to
parse SVG.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .data import DataMatrix
from .ghsom import GhsomTree, LeafPartition, SomMap
from .sai import significance_distance

log = logging.getLogger(__name__)

PLOT_SIZE = 600
MARGIN = 10
LEGEND_WIDTH = 170
CANVAS_WIDTH = MARGIN + PLOT_SIZE + MARGIN + LEGEND_WIDTH + MARGIN
CANVAS_HEIGHT = MARGIN + PLOT_SIZE + MARGIN
LEGEND_X = MARGIN + PLOT_SIZE + MARGIN
# x, y, width, height of the drawing area on the canvas
PLOT = (float(MARGIN), float(MARGIN), float(PLOT_SIZE), float(PLOT_SIZE))

# categorical palette (10 distinct hues, assigned to sorted labels)
PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

FEATURE_KINDS = ("mean", "median", "attribute", "significance", "label")


@dataclass(frozen=True)
class LeafCoordinate:
    """Center and cell size of one leaf cluster in the unit square."""

    cluster: str
    px: Fraction
    py: Fraction
    w_l: Fraction
    h_l: Fraction


@dataclass(frozen=True)
class FeatureSpec:
    """What to color clusters by.

    kind:
      - "mean": mean of all attribute values over the cluster's samples
      - "median": median of all attribute values over the cluster's samples
      - "attribute": mean of one named attribute (requires ``attribute``)
      - "significance": distance to ``target_cluster`` over its top-k
        significant attributes (requires ``target_cluster``)
      - "label": majority sample label, drawn with opacity = purity
        (requires labels on the data matrix)

    Continuous kinds are mapped linearly onto low_color..high_color over
    the [min, max] of the rendered values.
    """

    kind: str
    attribute: str | None = None
    target_cluster: str | None = None
    k: int | None = None
    low_color: str = "#d62728"
    high_color: str = "#1f77b4"

    def validate(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind '{self.kind}'; use one of {FEATURE_KINDS}")
        if self.kind == "attribute" and not self.attribute:
            raise ValueError("feature kind 'attribute' requires an attribute name")
        if self.kind == "significance" and not self.target_cluster:
            raise ValueError("feature kind 'significance' requires a target cluster")


def leaf_coordinates(tree: GhsomTree) -> list[LeafCoordinate]:
    """Exact unit-square centers for every leaf unit, in tree order."""
    out: list[LeafCoordinate] = []
    _walk_leaves(tree.root, Fraction(0), Fraction(0), Fraction(1), Fraction(1), out)
    return out


def _walk_leaves(som: SomMap, x_acc: Fraction, y_acc: Fraction, w_prev: Fraction,
                 h_prev: Fraction, out: list[LeafCoordinate]) -> None:
    """Append to ``out`` the coordinate of every leaf unit under ``som``,
    whose map fills the ``w_prev`` x ``h_prev`` cell at (x_acc, y_acc)."""
    # a module-level function, not a closure: a recursive closure is a
    # reference cycle that would keep ``out`` alive until the cyclic
    # collector runs
    w_i = w_prev / som.cols
    h_i = h_prev / som.rows
    for u in range(som.rows * som.cols):
        row, col = divmod(u, som.cols)
        x = x_acc + w_i * col
        y = y_acc + h_i * row
        child = som.children.get(u)
        if child is None:
            out.append(
                LeafCoordinate(
                    cluster=som.unit_path(u),
                    px=x + w_i / 2,
                    py=y + h_i / 2,
                    w_l=w_i,
                    h_l=h_i,
                )
            )
        else:
            _walk_leaves(child, x, y, w_i, h_i, out)


# ---------------------------------------------------------------------------
# squarified treemap layout

def _worst_aspect(row_areas: list[float], side: float) -> float:
    total = sum(row_areas)
    thickness = total / side
    worst = 1.0
    for a in row_areas:
        length = a / thickness
        worst = max(worst, thickness / length, length / thickness)
    return worst


def squarify(areas: list[float], rect: tuple[float, float, float, float]):
    """Tile ``rect`` with one sub-rectangle per area, preserving order.

    Areas are scaled to fill the rect exactly; rows are laid along the
    shorter side of the remaining space, and a row is closed as soon as
    adding the next item would worsen its worst aspect ratio. Returns
    rects aligned with ``areas``.
    """
    x, y, w, h = rect
    if not areas:
        return []
    if min(areas) <= 0:
        raise ValueError("squarify needs positive areas")
    scale = (w * h) / sum(areas)
    scaled = [a * scale for a in areas]
    rects: list[tuple[float, float, float, float]] = []

    def close_row(row: list[float]):
        nonlocal x, y, w, h
        total = sum(row)
        if w >= h:  # vertical strip on the left
            thickness = total / h
            cy = y
            for a in row:
                rects.append((x, cy, thickness, a / thickness))
                cy += a / thickness
            x += thickness
            w -= thickness
        else:  # horizontal strip on top
            thickness = total / w
            cx = x
            for a in row:
                rects.append((cx, y, a / thickness, thickness))
                cx += a / thickness
            y += thickness
            h -= thickness

    row: list[float] = []
    for a in scaled:
        side = min(w, h)
        if row and _worst_aspect(row + [a], side) > _worst_aspect(row, side):
            close_row(row)
            row = []
        row.append(a)
    close_row(row)
    return rects


# ---------------------------------------------------------------------------
# colors and SVG helpers

def _parse_hex(color: str) -> tuple[int, int, int]:
    c = color.lstrip("#")
    if len(c) != 6:
        raise ValueError(f"expected #rrggbb color, got '{color}'")
    return int(c[0:2], 16), int(c[2:4], 16), int(c[4:6], 16)


def _lerp_color(low: str, high: str, t: float) -> str:
    t = min(1.0, max(0.0, t))
    lo, hi = _parse_hex(low), _parse_hex(high)
    rgb = tuple(round(a + (b - a) * t) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _n(x: float) -> str:
    """Compact fixed-precision number for SVG coordinates."""
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_open() -> list[str]:
    w, h = _n(CANVAS_WIDTH), _n(CANVAS_HEIGHT)
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
    ]


def _paint(nodes: list[dict], spec: FeatureSpec) -> tuple[list[str], list[str]]:
    """Fill color of each node, and the SVG lines of the matching legend.

    Label specs give each majority label a palette color, in sorted
    label order; continuous specs map each node's value linearly onto
    low_color..high_color over the [min, max] of the values.
    """
    x, y, h = LEGEND_X, 40.0, 200.0
    if spec.kind == "label":
        labels = sorted({n["label"] for n in nodes})
        color_of = {l: PALETTE[i % len(PALETTE)] for i, l in enumerate(labels)}
        legend = [f'<text x="{_n(x)}" y="{_n(y - 8)}" font-size="12" '
                  'font-family="sans-serif">majority label</text>']
        for i, (label, color) in enumerate(color_of.items()):
            cy = y + 18 * i
            legend.append(f'<rect x="{_n(x)}" y="{_n(cy)}" width="12" height="12" '
                          f'fill="{color}" stroke="#333333" stroke-width="0.5"/>')
            legend.append(f'<text x="{_n(x + 18)}" y="{_n(cy + 10)}" font-size="11" '
                          f'font-family="sans-serif">{_esc(label)}</text>')
        return [color_of[n["label"]] for n in nodes], legend

    values = [n["value"] for n in nodes]
    vmin, vmax = (min(values), max(values)) if values else (0.0, 0.0)
    span = vmax - vmin
    colors = [_lerp_color(spec.low_color, spec.high_color,
                          0.5 if span == 0 else (v - vmin) / span) for v in values]
    legend = [
        '<defs><linearGradient id="scale" x1="0" y1="1" x2="0" y2="0">'
        f'<stop offset="0" stop-color="{spec.low_color}"/>'
        f'<stop offset="1" stop-color="{spec.high_color}"/>'
        "</linearGradient></defs>",
        f'<text x="{_n(x)}" y="{_n(y - 8)}" font-size="12" '
        f'font-family="sans-serif">{_esc(_feature_title(spec))}</text>',
        f'<rect x="{_n(x)}" y="{_n(y)}" width="18" height="{_n(h)}" '
        'fill="url(#scale)" stroke="#333333" stroke-width="0.5"/>',
        f'<text x="{_n(x + 24)}" y="{_n(y + 10)}" font-size="11" '
        f'font-family="sans-serif">{vmax:.4g}</text>',
        f'<text x="{_n(x + 24)}" y="{_n(y + h)}" font-size="11" '
        f'font-family="sans-serif">{vmin:.4g}</text>',
    ]
    return colors, legend


# ---------------------------------------------------------------------------
# feature values

class _FeatureComputer:
    """Per-cluster feature values for one render pass."""

    def __init__(self, tree: GhsomTree, partition: LeafPartition, m: DataMatrix,
                 spec: FeatureSpec):
        spec.validate()
        if not m.sample_ids == tree.sample_ids == partition.sample_ids:
            raise ValueError("tree, partition and data matrix list different sample ids")
        self.m = m
        self.spec = spec
        if spec.kind == "attribute":
            self.col = m.attribute_index(spec.attribute)
        elif spec.kind == "significance":
            self.distance = significance_distance(partition, m, spec.target_cluster, spec.k)
        elif spec.kind == "label":
            if m.labels is None:
                raise ValueError("feature kind 'label' requires labels on the data matrix")
            self.labels = np.array(m.labels, dtype=object)

    def value(self, indices: np.ndarray) -> float:
        if self.spec.kind == "significance":
            return self.distance(indices)
        sub = self.m.values[indices]
        if self.spec.kind == "mean":
            return float(sub.mean())
        if self.spec.kind == "median":
            return float(np.median(sub))
        if self.spec.kind == "attribute":
            return float(sub[:, self.col].mean())
        raise AssertionError(self.spec.kind)

    def majority(self, indices: np.ndarray) -> tuple[str, float]:
        """(majority label, purity); label ties break alphabetically."""
        counts = Counter(self.labels[indices])
        top = max(counts.values())
        label = min(l for l, c in counts.items() if c == top)
        return str(label), top / len(indices)


# ---------------------------------------------------------------------------
# renderers

EMPTY_PATHS_SHOWN = 5


def _warn_empty(what: str, paths: list[str]) -> None:
    """One warning for all the empty units a render drops: a capped map
    can hold hundreds, and a line each would bury every other warning."""
    if paths:
        shown = ", ".join(paths[:EMPTY_PATHS_SHOWN])
        more = ", ..." if len(paths) > EMPTY_PATHS_SHOWN else ""
        log.warning("%s: dropping empty clusters, %d in all: %s%s",
                    what, len(paths), shown, more)


def _place(som: SomMap, rect, depth: int, drill_depth: int | None,
           feature: _FeatureComputer, nodes: list[dict], empty: list[str]) -> None:
    """Lay out the occupied units of ``som`` in ``rect``, appending a node
    per unit to ``nodes`` and the path of each empty unit to ``empty``,
    and recurse into the child maps that are drilled into."""
    # a module-level function, not a closure: a recursive closure is a
    # reference cycle that would keep ``feature`` alive until the cyclic
    # collector runs
    units = []
    for u, assigned in enumerate(som.members()):
        path = som.unit_path(u)
        if len(assigned) == 0:
            empty.append(path)
            continue
        units.append((path, assigned, som.children.get(u)))
    units.sort(key=lambda unit: (-len(unit[1]), unit[0]))
    rects = squarify([float(len(assigned)) for _, assigned, _ in units], rect)
    for (path, assigned, child), r in zip(units, rects):
        drill = child is not None and (drill_depth is None or depth < drill_depth)
        node = {
            "path": path,
            "depth": depth,
            "x": r[0], "y": r[1], "width": r[2], "height": r[3],
            "count": len(assigned),
            "leaf": not drill,
        }
        if feature.spec.kind == "label":
            label, purity = feature.majority(assigned)
            node["label"] = label
            node["purity"] = purity
        else:
            node["value"] = feature.value(assigned)
        nodes.append(node)
        if drill:
            _place(child, r, depth + 1, drill_depth, feature, nodes, empty)


def render_feature_map(
    tree: GhsomTree,
    partition: LeafPartition,
    m: DataMatrix,
    spec: FeatureSpec,
    drill_depth: int | None = None,
) -> tuple[str, dict]:
    """Nested treemap of the hierarchy; see module docstring.

    Returns the SVG text and a geometry dict listing every rendered
    rectangle with its path, bounds, count, and feature value.
    """
    if drill_depth is not None and drill_depth < 1:
        raise ValueError("drill_depth must be >= 1")
    feature = _FeatureComputer(tree, partition, m, spec)
    nodes: list[dict] = []
    empty: list[str] = []
    _place(tree.root, PLOT, 1, drill_depth, feature, nodes, empty)
    _warn_empty("feature map", empty)

    colors, legend = _paint(nodes, spec)
    parts = _svg_open()
    for node, color in zip(nodes, colors):
        stroke = max(0.5, 3.0 - node["depth"])
        parts.append(
            f'<rect x="{_n(node["x"])}" y="{_n(node["y"])}" '
            f'width="{_n(node["width"])}" height="{_n(node["height"])}" '
            f'fill="{color}" fill-opacity="{_n(node.get("purity", 1.0))}" '
            f'stroke="#222222" stroke-width="{_n(stroke)}"/>'
        )
    for node in nodes:
        if node["leaf"]:
            cx = node["x"] + node["width"] / 2
            cy = node["y"] + node["height"] / 2
            parts.append(
                f'<text x="{_n(cx)}" y="{_n(cy)}" font-size="10" '
                'font-family="sans-serif" text-anchor="middle" '
                f'fill="#111111">{_esc(node["path"])}</text>'
            )
    parts += legend
    parts.append("</svg>")
    geometry = _geometry("feature", spec, drill_depth=drill_depth, nodes=nodes)
    return "\n".join(parts) + "\n", geometry


def render_distribution_map(
    tree: GhsomTree,
    partition: LeafPartition,
    m: DataMatrix,
    spec: FeatureSpec,
) -> tuple[str, dict]:
    """Bubble chart of leaf clusters at their unit-square coordinates.

    Circle area tracks sample count. Label specs color by majority label
    with opacity = purity; continuous specs use the two-pole scale.
    Returns (svg, geometry) like render_feature_map.
    """
    feature = _FeatureComputer(tree, partition, m, spec)
    sizes = partition.sizes()
    nodes: list[dict] = []
    empty: list[str] = []
    for coord in leaf_coordinates(tree):
        count = sizes.get(coord.cluster, 0)
        if count == 0:
            empty.append(coord.cluster)
            continue
        indices = partition.members(coord.cluster)
        node = {
            "path": coord.cluster,
            "px": float(coord.px),
            "py": float(coord.py),
            "count": count,
        }
        if spec.kind == "label":
            label, purity = feature.majority(indices)
            node["label"] = label
            node["opacity"] = purity
        else:
            node["value"] = feature.value(indices)
            node["opacity"] = 1.0
        nodes.append(node)
    _warn_empty("distribution map", empty)

    colors, legend = _paint(nodes, spec)
    max_count = max((n["count"] for n in nodes), default=1)
    r_max = 0.07 * PLOT_SIZE
    for n, color in zip(nodes, colors):
        n["cx"] = MARGIN + n["px"] * PLOT_SIZE
        n["cy"] = MARGIN + n["py"] * PLOT_SIZE
        n["radius"] = r_max * float(np.sqrt(n["count"] / max_count))
        n["color"] = color

    parts = _svg_open()
    parts.append(
        f'<rect x="{_n(MARGIN)}" y="{_n(MARGIN)}" width="{_n(PLOT_SIZE)}" '
        f'height="{_n(PLOT_SIZE)}" fill="none" stroke="#999999" stroke-width="1"/>'
    )
    for n in nodes:
        parts.append(
            f'<circle cx="{_n(n["cx"])}" cy="{_n(n["cy"])}" r="{_n(n["radius"])}" '
            f'fill="{n["color"]}" fill-opacity="{_n(n["opacity"])}" '
            f'stroke="#222222" stroke-width="0.8">'
            f"<title>{_esc(n['path'])}</title></circle>"
        )
    parts += legend
    parts.append("</svg>")
    return "\n".join(parts) + "\n", _geometry("distribution", spec, nodes=nodes)


def _geometry(which: str, spec: FeatureSpec, **rest) -> dict:
    """The fields every map's geometry starts with, then ``rest``."""
    x, y, w, h = PLOT
    return {
        "map": which,
        "feature": asdict(spec),
        "canvas": {"width": CANVAS_WIDTH, "height": CANVAS_HEIGHT},
        "plot": {"x": x, "y": y, "width": w, "height": h},
        **rest,
    }


def _feature_title(spec: FeatureSpec) -> str:
    if spec.kind == "attribute":
        return spec.attribute
    if spec.kind == "significance":
        return f"distance to {spec.target_cluster}"
    return spec.kind
