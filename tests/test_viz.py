import gc
import itertools
import math
import weakref
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghsomkit import (
    DataMatrix,
    FeatureSpec,
    GhsomParams,
    GhsomTree,
    leaf_coordinates,
    leaf_partition,
    render_distribution_map,
    render_feature_map,
    significance_difference_feature,
    squarify,
)
from ghsomkit import viz
from ghsomkit.ghsom import SomMap
from ghsomkit.viz import MARGIN, PLOT_SIZE
from helpers import WORKED_LEAF_LABELS, majority_and_purity, worked_example_tree


@pytest.fixture(scope="module")
def worked():
    return worked_example_tree()


# ---------------------------------------------------------------- coordinates


def test_coordinates_worked_example_exact(worked):
    tree, _ = worked
    coords = {c.cluster: c for c in leaf_coordinates(tree)}
    target = coords["0x0-1x1"]
    assert target.px == Fraction(3, 8)
    assert target.py == Fraction(3, 12)
    assert target.w_l == Fraction(1, 4)
    assert target.h_l == Fraction(1, 6)
    # a depth-1 leaf for contrast: cell centers on the coarse grid
    assert coords["1x2"].px == Fraction(3, 4)
    assert coords["1x2"].py == Fraction(5, 6)


def _bare_map(rows, cols, depth, path):
    som = SomMap(rows, cols, np.zeros((rows, cols, 1)), 1.0, depth, path, np.array([], dtype=np.intp))
    return som


def _bare_tree(root):
    return GhsomTree(
        w0=np.zeros(1),
        mqe0=1.0,
        root=root,
        params=GhsomParams(),
        sample_ids=[],
        attribute_names=["f0"],
    )


def _ancestor_rects(tree):
    rects = {}

    def walk(som, x, y, w, h):
        wi, hi = w / som.cols, h / som.rows
        for r in range(som.rows):
            for c in range(som.cols):
                path = som.unit_path(r, c)
                rects[path] = (x + wi * c, y + hi * r, wi, hi)
                child = som.children.get((r, c))
                if child is not None:
                    walk(child, x + wi * c, y + hi * r, wi, hi)

    walk(tree.root, Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    return rects


def test_coordinates_contained_in_every_ancestor(worked, nested_tree):
    for tree in (worked[0], nested_tree):
        rects = _ancestor_rects(tree)
        for coord in leaf_coordinates(tree):
            assert Fraction(0) < coord.px < Fraction(1)
            assert Fraction(0) < coord.py < Fraction(1)
            segments = coord.cluster.split("-")
            for i in range(1, len(segments) + 1):
                x, y, w, h = rects["-".join(segments[:i])]
                assert x <= coord.px - coord.w_l / 2
                assert coord.px + coord.w_l / 2 <= x + w
                assert y <= coord.py - coord.h_l / 2
                assert coord.py + coord.h_l / 2 <= y + h


def test_coordinates_injective_and_stable(worked, nested_tree):
    for tree in (worked[0], nested_tree):
        coords = leaf_coordinates(tree)
        centers = [(c.px, c.py) for c in coords]
        assert len(set(centers)) == len(centers)
        again = leaf_coordinates(tree)
        assert coords == again


def test_flat_grid_centers():
    tree = _bare_tree(_bare_map(2, 5, 1, ""))
    for coord in leaf_coordinates(tree):
        col, row = map(int, coord.cluster.split("x"))
        assert coord.px == Fraction(2 * col + 1, 10)
        assert coord.py == Fraction(2 * row + 1, 4)


def test_siblings_closer_than_corresponding_cross_cell_leaves():
    # uniform 2x2 root cells, 2x2 children in two different cells: any
    # same-parent pair sits closer than any pair occupying the same
    # within-cell position in different layer-1 cells
    root = _bare_map(2, 2, 1, "")
    root.children[(0, 0)] = _bare_map(2, 2, 2, "0x0")
    root.children[(0, 1)] = _bare_map(2, 2, 2, "1x0")
    tree = _bare_tree(root)
    coords = {c.cluster: c for c in leaf_coordinates(tree)}

    def dist(a, b):
        return math.hypot(float(a.px - b.px), float(a.py - b.py))

    sib_max = max(
        dist(coords[f"0x0-{n1}"], coords[f"0x0-{n2}"])
        for n1, n2 in itertools.combinations(("0x0", "1x0", "0x1", "1x1"), 2)
    )
    cross_min = min(
        dist(coords[f"0x0-{n}"], coords[f"1x0-{n}"]) for n in ("0x0", "1x0", "0x1", "1x1")
    )
    assert sib_max < cross_min


# ---------------------------------------------------------------- squarify


def test_squarify_preserves_order_and_area():
    areas = [75.0, 25.0]
    rects = squarify(areas, (0.0, 0.0, 100.0, 100.0))
    assert len(rects) == 2
    a0 = rects[0][2] * rects[0][3]
    a1 = rects[1][2] * rects[1][3]
    assert a0 / a1 == pytest.approx(3.0, rel=0.005)
    assert a0 + a1 == pytest.approx(10000.0, rel=1e-9)


def test_squarify_empty_and_invalid():
    assert squarify([], (0, 0, 10, 10)) == []
    with pytest.raises(ValueError, match="positive"):
        squarify([3.0, 0.0], (0, 0, 10, 10))
    with pytest.raises(ValueError, match="positive"):
        squarify([-1.0], (0, 0, 10, 10))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 100.0), min_size=1, max_size=12),
    st.floats(1.0, 500.0),
    st.floats(1.0, 500.0),
)
def test_squarify_conservation_and_proportionality(areas, w, h):
    rects = squarify(areas, (3.0, 7.0, w, h))
    assert len(rects) == len(areas)
    total_in = sum(areas)
    total_out = sum(r[2] * r[3] for r in rects)
    assert total_out == pytest.approx(w * h, rel=1e-6)
    for a, r in zip(areas, rects):
        assert r[2] > 0 and r[3] > 0
        assert r[2] * r[3] / total_out == pytest.approx(a / total_in, rel=1e-6)
        # stays inside the target rect
        assert r[0] >= 3.0 - 1e-6 and r[1] >= 7.0 - 1e-6
        assert r[0] + r[2] <= 3.0 + w + 1e-6
        assert r[1] + r[3] <= 7.0 + h + 1e-6


def test_squarify_lays_rows_along_the_shorter_remaining_side():
    # three full-width rows leave a 2x2 square at the bottom of the tall
    # rect; its first row is a column at x = 0. Advancing y without
    # shrinking the remaining height would lay items 3 and 4 side by
    # side along the width at y = 4.
    rects = squarify([6, 6, 4, 3, 2, 2, 1], (0, 0, 2, 6))
    assert [r[1] for r in rects[:3]] == [0.0, 1.5, 3.0]
    assert all(r[0] == 0 and r[2] == 2.0 for r in rects[:3])
    assert rects[3][:2] == (0, 4.0)
    assert rects[4][0] == 0
    assert rects[4][1] == pytest.approx(rects[3][1] + rects[3][3])
    assert rects[3][2] == rects[4][2]


def test_squarify_single_item_fills_rect():
    (r,) = squarify([42.0], (1.0, 2.0, 8.0, 4.0))
    assert r == (1.0, 2.0, 8.0, 4.0)


# ---------------------------------------------------------------- feature map


def _area(node):
    return node["width"] * node["height"]


def test_feature_map_children_tile_their_parent(worked):
    tree, m = worked
    part = leaf_partition(tree)
    _, geom = render_feature_map(tree, part, m, FeatureSpec(kind="mean"))
    nodes = {n["path"]: n for n in geom["nodes"]}
    parent = nodes["0x0"]
    kids = [n for p, n in nodes.items() if p.startswith("0x0-")]
    assert len(kids) == 4
    assert sum(map(_area, kids)) == pytest.approx(_area(parent), rel=1e-6)
    # and depth-1 nodes tile the plot
    depth1 = [n for n in geom["nodes"] if n["depth"] == 1]
    assert sum(map(_area, depth1)) == pytest.approx(PLOT_SIZE * PLOT_SIZE, rel=1e-6)


def test_feature_map_areas_proportional_to_counts(worked):
    tree, m = worked
    part = leaf_partition(tree)
    _, geom = render_feature_map(tree, part, m, FeatureSpec(kind="mean"))
    total = sum(len(v) for v in WORKED_LEAF_LABELS.values())
    for n in geom["nodes"]:
        if n["depth"] == 1:
            assert _area(n) / (PLOT_SIZE * PLOT_SIZE) == pytest.approx(
                n["count"] / total, rel=0.005
            )


def test_feature_map_byte_identical(worked):
    tree, m = worked
    part = leaf_partition(tree)
    spec = FeatureSpec(kind="label")
    svg1, geom1 = render_feature_map(tree, part, m, spec)
    svg2, geom2 = render_feature_map(tree, part, m, spec)
    assert svg1 == svg2
    assert geom1 == geom2


@pytest.mark.parametrize("render", [render_feature_map, render_distribution_map])
def test_render_leaves_no_reference_cycle(worked, monkeypatch, render):
    # a cycle through the render's feature computer would keep the data
    # matrix and partition it holds alive until a collection
    made = []

    class Recorded(viz._FeatureComputer):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(viz, "_FeatureComputer", Recorded)
    tree, m = worked
    part = leaf_partition(tree)
    gc.disable()
    try:
        render(tree, part, m, FeatureSpec(kind="mean"))
        assert len(made) == 1
        assert made[0]() is None
    finally:
        gc.enable()


def test_leaf_coordinates_leave_no_reference_cycle(worked):
    # a recursive closure would keep the returned list alive until a
    # collection, after the caller has dropped it
    tree, _ = worked
    gc.disable()
    try:
        coords = leaf_coordinates(tree)
        first = weakref.ref(coords[0])
        del coords
        assert first() is None
    finally:
        gc.enable()


def test_feature_map_label_purity_exact(worked):
    tree, m = worked
    part = leaf_partition(tree)
    svg, geom = render_feature_map(tree, part, m, FeatureSpec(kind="label"))
    for n in geom["nodes"]:
        if n["path"] in WORKED_LEAF_LABELS:
            label, purity = majority_and_purity(WORKED_LEAF_LABELS[n["path"]])
            assert n["label"] == label
            assert n["purity"] == purity
    # the 2-2-1 tie resolves to the alphabetically first label
    tied = next(n for n in geom["nodes"] if n["path"] == "0x0-1x1")
    assert tied["label"] == "alpha"
    assert tied["purity"] == 0.4
    assert 'fill-opacity="0.4"' in svg


def test_feature_map_value_kinds(worked):
    tree, m = worked
    part = leaf_partition(tree)
    for kind, expect in [
        ("mean", lambda sub: sub.mean()),
        ("median", lambda sub: np.median(sub)),
    ]:
        _, geom = render_feature_map(tree, part, m, FeatureSpec(kind=kind))
        n = next(x for x in geom["nodes"] if x["path"] == "1x0")
        sub = m.values[part.members("1x0")]
        assert n["value"] == pytest.approx(float(expect(sub)), rel=1e-12)

    _, geom = render_feature_map(tree, part, m, FeatureSpec(kind="attribute", attribute="f1"))
    n = next(x for x in geom["nodes"] if x["path"] == "0x2")
    assert n["value"] == pytest.approx(float(m.values[part.members("0x2"), 1].mean()), rel=1e-12)

    _, geom = render_feature_map(
        tree, part, m, FeatureSpec(kind="significance", target_cluster="1x0", k=2)
    )
    target = next(x for x in geom["nodes"] if x["path"] == "1x0")
    assert target["value"] == 0.0
    others = [x["value"] for x in geom["nodes"] if x["path"] != "1x0" and x["leaf"]]
    assert all(v > 0 for v in others)


def test_feature_map_significance_is_the_sai_feature(worked):
    # one computation: exact equality on every leaf, the target's 0 included
    tree, m = worked
    part = leaf_partition(tree)
    spec = FeatureSpec(kind="significance", target_cluster="0x0-0x1", k=2)
    _, geom = render_feature_map(tree, part, m, spec)
    want = significance_difference_feature(part, m, "0x0-0x1", k=2)
    leaves = {n["path"]: n["value"] for n in geom["nodes"] if n["leaf"]}
    assert leaves.keys() == want.keys()
    for path, value in leaves.items():
        assert value == want[path]
    assert want["0x0-0x1"] == 0.0


@pytest.mark.parametrize("render", [render_feature_map, render_distribution_map])
def test_render_rejects_misaligned_matrix(worked, render):
    # the same ids in reverse order: indexing by the tree's sample
    # indices would silently read other samples' values
    tree, m = worked
    part = leaf_partition(tree)
    reversed_m = DataMatrix(m.values[::-1], m.sample_ids[::-1], m.attribute_names,
                            labels=m.labels[::-1], label_name=m.label_name)
    with pytest.raises(ValueError, match="different sample ids"):
        render(tree, part, reversed_m, FeatureSpec(kind="mean"))


def test_feature_map_drill_depth_one_stops_at_root_grid(worked):
    tree, m = worked
    part = leaf_partition(tree)
    _, geom = render_feature_map(tree, part, m, FeatureSpec(kind="mean"), drill_depth=1)
    assert all(n["depth"] == 1 for n in geom["nodes"])
    assert all(n["leaf"] for n in geom["nodes"])
    with pytest.raises(ValueError, match="drill_depth"):
        render_feature_map(tree, part, m, FeatureSpec(kind="mean"), drill_depth=0)


def test_feature_spec_validation(worked):
    tree, m = worked
    part = leaf_partition(tree)
    with pytest.raises(ValueError, match="unknown feature kind"):
        render_feature_map(tree, part, m, FeatureSpec(kind="sparkles"))
    with pytest.raises(ValueError, match="requires an attribute"):
        render_feature_map(tree, part, m, FeatureSpec(kind="attribute"))
    with pytest.raises(ValueError, match="requires a target cluster"):
        render_feature_map(tree, part, m, FeatureSpec(kind="significance"))
    unlabeled = DataMatrix(m.values, m.sample_ids, m.attribute_names)
    with pytest.raises(ValueError, match="requires labels"):
        render_feature_map(tree, part, unlabeled, FeatureSpec(kind="label"))


def test_feature_map_constant_feature_uses_midpoint_color(worked):
    tree, m = worked
    part = leaf_partition(tree)
    flat = DataMatrix(np.ones_like(m.values), m.sample_ids, m.attribute_names)
    svg, _ = render_feature_map(
        tree, part, flat, FeatureSpec(kind="mean", low_color="#000000", high_color="#0000ff")
    )
    assert "#000080" in svg  # halfway between the poles


def test_renders_are_valid_xml(worked):
    tree, m = worked
    part = leaf_partition(tree)
    for spec in (FeatureSpec(kind="mean"), FeatureSpec(kind="label")):
        svg_f, _ = render_feature_map(tree, part, m, spec)
        svg_d, _ = render_distribution_map(tree, part, m, spec)
        ET.fromstring(svg_f)
        ET.fromstring(svg_d)


def _tree_with_empty_unit(rows=2, cols=2):
    """Nine samples on the first three units of a rows x cols root map;
    every other unit is empty."""
    rng = np.random.default_rng(0)
    n = 9
    values = rng.normal(size=(n, 2))
    m = DataMatrix(
        values,
        [f"s{i}" for i in range(n)],
        ["f0", "f1"],
        labels=["u"] * n,
        label_name="lab",
    )
    som = SomMap(rows, cols, rng.normal(size=(rows, cols, 2)), 1.0, 1, "", np.arange(n))
    # units (0, 0), (0, 1) and (1, 0), row-major, hold 3 samples each
    som.units = np.array([0] * 3 + [1] * 3 + [cols] * 3)
    som.unit_mqe = np.zeros((rows, cols))
    tree = GhsomTree(
        w0=values.mean(axis=0),
        mqe0=1.0,
        root=som,
        params=GhsomParams(),
        sample_ids=list(m.sample_ids),
        attribute_names=list(m.attribute_names),
    )
    return tree, m


def test_empty_units_dropped_with_warning(caplog):
    import logging

    tree, m = _tree_with_empty_unit()
    part = leaf_partition(tree)
    with caplog.at_level(logging.WARNING, logger="ghsomkit.viz"):
        _, geom_f = render_feature_map(tree, part, m, FeatureSpec(kind="mean"))
        _, geom_d = render_distribution_map(tree, part, m, FeatureSpec(kind="mean"))
    assert len(geom_f["nodes"]) == 3
    assert len(geom_d["nodes"]) == 3
    assert sum("dropping empty cluster" in r.message for r in caplog.records) == 2


def test_many_empty_units_one_warning_per_render(caplog):
    import logging

    tree, m = _tree_with_empty_unit(rows=4, cols=5)  # 17 empty units
    part = leaf_partition(tree)
    for render in (render_feature_map, render_distribution_map):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ghsomkit.viz"):
            _, geom = render(tree, part, m, FeatureSpec(kind="mean"))
        assert len(geom["nodes"]) == 3
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "dropping empty cluster" in message
        assert "17 in all" in message
        assert message.endswith(", ...")


# ---------------------------------------------------------------- distribution map


def test_distribution_map_radii_and_centers(worked):
    tree, m = worked
    part = leaf_partition(tree)
    _, geom = render_distribution_map(tree, part, m, FeatureSpec(kind="mean"))
    nodes = {n["path"]: n for n in geom["nodes"]}
    assert len(nodes) == 9
    max_count = max(n["count"] for n in nodes.values())
    assert max_count == 75
    assert nodes["1x0"]["radius"] == pytest.approx(0.07 * PLOT_SIZE)
    for n in nodes.values():
        assert n["radius"] == pytest.approx(
            0.07 * PLOT_SIZE * math.sqrt(n["count"] / max_count)
        )
        assert n["cx"] == pytest.approx(MARGIN + n["px"] * PLOT_SIZE)
        assert n["cy"] == pytest.approx(MARGIN + n["py"] * PLOT_SIZE)
    # unit-square centers match the exact coordinates
    coords = {c.cluster: c for c in leaf_coordinates(tree)}
    for path, n in nodes.items():
        assert n["px"] == float(coords[path].px)
        assert n["py"] == float(coords[path].py)


def test_distribution_map_label_opacity_is_purity(worked):
    tree, m = worked
    part = leaf_partition(tree)
    svg, geom = render_distribution_map(tree, part, m, FeatureSpec(kind="label"))
    same_label_colors = {}
    for n in geom["nodes"]:
        _, purity = majority_and_purity(WORKED_LEAF_LABELS[n["path"]])
        assert n["opacity"] == purity
        same_label_colors.setdefault(n["label"], set()).add(n["color"])
    # one palette color per label
    assert all(len(colors) == 1 for colors in same_label_colors.values())
    assert len({next(iter(c)) for c in same_label_colors.values()}) == len(same_label_colors)
    assert "<title>0x0-1x1</title>" in svg


def test_distribution_map_continuous_opacity_is_one(worked):
    tree, m = worked
    part = leaf_partition(tree)
    _, geom = render_distribution_map(tree, part, m, FeatureSpec(kind="attribute", attribute="f0"))
    assert all(n["opacity"] == 1.0 for n in geom["nodes"])


def test_distribution_map_byte_identical(worked):
    tree, m = worked
    part = leaf_partition(tree)
    spec = FeatureSpec(kind="median")
    svg1, geom1 = render_distribution_map(tree, part, m, spec)
    svg2, geom2 = render_distribution_map(tree, part, m, spec)
    assert svg1 == svg2
    assert geom1 == geom2
