"""Tests of the benchmark's own reference computations and checks.

    python3 -m pytest bench -q

Each reference is compared with a slower or hand-worked formulation.
"""

import itertools
import math

import numpy as np
import pytest

import checks
import inputs
import reference


def test_nearest_unit_matches_loop():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 3))
    w = rng.normal(size=(7, 3))
    best, dist = reference.nearest_unit(x, w)
    for i, xi in enumerate(x):
        d = [math.dist(xi, wu) for wu in w]
        assert best[i] == d.index(min(d))
        assert np.allclose(dist[i], d)


def test_nearest_unit_ties_go_to_lowest_index():
    best, _ = reference.nearest_unit(np.zeros((1, 2)), np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert best[0] == 0


def test_unit_mqe_by_hand():
    x = np.array([[0.0, 3.0], [4.0, 0.0]])
    assert reference.unit_mqe(x, np.zeros(2)) == 3.5
    assert reference.unit_mqe(x[:0], np.zeros(2)) == 0.0


def _ari_pairs(a, b):
    """ARI from pair counts over all sample pairs."""
    n = len(a)
    both = sa = sb = 0
    for i, j in itertools.combinations(range(n), 2):
        same_a, same_b = a[i] == a[j], b[i] == b[j]
        sa += same_a
        sb += same_b
        both += same_a and same_b
    expected = sa * sb / math.comb(n, 2)
    return (both - expected) / ((sa + sb) / 2 - expected)


@pytest.mark.parametrize("seed", range(5))
def test_ari_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=60).tolist()
    b = rng.integers(0, 3, size=60).tolist()
    assert reference.ari(a, b) == pytest.approx(_ari_pairs(a, b), rel=1e-12)


def test_ari_identity_and_relabelling():
    a = ["x", "x", "y", "y", "z"]
    assert reference.ari(a, a) == 1.0
    assert reference.ari(a, [1, 1, 2, 2, 3]) == 1.0
    assert reference.ari(["a"] * 4, ["b"] * 4) == 0.0


def test_ch_by_hand():
    # two clusters of two points on a line: centroids 0.5 and 10.5
    values = np.array([[0.0], [1.0], [10.0], [11.0]])
    between = 2 * 5.0**2 * 2
    within = 4 * 0.25
    assert reference.ch(values, ["a", "a", "b", "b"]) == pytest.approx(
        (between / 1) / (within / 2))


def test_ch_is_scale_invariant():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(30, 4))
    labels = rng.integers(0, 3, size=30)
    assert reference.ch(values * 7.0, labels) == pytest.approx(reference.ch(values, labels))


def test_sai_matches_definitions():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(24, 5))
    clusters = np.array(["a"] * 8 + ["b"] * 10 + ["c"] * 6)
    sigma_i, sigma_b, diff = reference.sai(values, clusters, "b")
    for j in range(5):
        inside = values[clusters == "b", j]
        m = inside.mean()
        assert sigma_i[j] == pytest.approx(math.sqrt(sum((v - m) ** 2 for v in inside) / 10))
        others = [values[clusters == c, j].mean() for c in "ac"]
        assert sigma_b[j] == pytest.approx(math.sqrt(sum((o - m) ** 2 for o in others) / 2))
        assert diff[j] == pytest.approx(sigma_b[j] - sigma_i[j])


def test_sai_order_breaks_ties_by_name():
    assert reference.sai_order(np.array([1.0, 2.0, 2.0]), ["c", "b", "a"]) == ["a", "b", "c"]


def test_top_k_variable_matches_sort():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(50, 12)) * rng.uniform(0.1, 3.0, size=12)
    var = [float(np.var(values[:, j])) for j in range(12)]
    want = sorted(sorted(range(12), key=lambda j: -var[j])[:4])
    assert reference.top_k_variable(values, 4) == want


def test_top_k_variable_ties_keep_lower_columns():
    values = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])
    assert reference.top_k_variable(values, 2) == [0, 1]


def _node(path, count, x, y, w, h):
    return {"path": path, "count": count, "x": x, "y": y, "width": w, "height": h}


PLOT = {"x": 0.0, "y": 0.0, "width": 4.0, "height": 2.0}


def test_treemap_accepts_proportional_tiling():
    nodes = [
        _node("0x0", 3, 0.0, 0.0, 3.0, 2.0),
        _node("0x0-0x0", 2, 0.0, 0.0, 2.0, 2.0),
        _node("0x0-1x0", 1, 2.0, 0.0, 1.0, 2.0),
        _node("1x0", 1, 3.0, 0.0, 1.0, 2.0),
    ]
    assert reference.treemap_errors(nodes, PLOT) == []


def test_treemap_rejects_wrong_area_and_overlap():
    nodes = [_node("0x0", 3, 0.0, 0.0, 2.0, 2.0), _node("1x0", 1, 1.0, 0.0, 2.0, 2.0)]
    errors = reference.treemap_errors(nodes, PLOT)
    assert any("proportional" in e for e in errors)
    assert any("overlaps" in e for e in errors)


def test_bubbles_proportional_to_sqrt_count():
    nodes = [{"path": "a", "count": 4, "radius": 2.0}, {"path": "b", "count": 9, "radius": 3.0}]
    assert reference.bubble_errors(nodes) == []
    nodes[1]["radius"] = 4.5
    assert reference.bubble_errors(nodes) == [
        "distribution map: radius of b is not proportional to sqrt(count)"]


def _tree_doc(weights, assigned, mqe, parent_mqe=10.0, tau1=0.5, tau2=0.5):
    units = [
        {"row": r, "col": c, "weight": weights[2 * r + c], "mqe": mqe[2 * r + c],
         "assigned": assigned[2 * r + c], "child": None}
        for r in range(2) for c in range(2)
    ]
    ids = sorted(sid for a in assigned for sid in a)
    return {
        "params": {"tau1": tau1, "tau2": tau2, "max_depth": 10, "depth_reference": "global"},
        "sample_ids": ids,
        "mqe0": parent_mqe,
        "root": {"rows": 2, "cols": 2, "depth": 1, "parent_mqe": parent_mqe, "units": units},
    }


def test_tree_errors_accepts_a_consistent_map():
    values = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 10.0]])
    weights = [[0.0, 1.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]]
    doc = _tree_doc(weights, [["s0", "s1"], ["s2"], [], ["s3"]], [1.0, 0.0, 0.0, 0.0])
    assert checks.tree_errors(doc, values, (4, 64)) == []


def test_tree_errors_catches_wrong_unit_wrong_mqe_and_lost_sample():
    values = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 10.0]])
    weights = [[0.0, 1.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]]
    doc = _tree_doc(weights, [["s0", "s1", "s2"], [], [], ["s3"]], [1.0, 0.0, 0.0, 0.5])
    doc["sample_ids"].append("s4")
    errors = checks.tree_errors(doc, np.vstack([values, [[5.0, 5.0]]]), (4, 64))
    assert any("nearest unit" in e for e in errors)
    assert any("recomputed" in e for e in errors)
    assert any("exactly one leaf" in e for e in errors)


def test_tree_errors_requires_tau1_or_a_cap():
    values = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 10.0]])
    weights = [[0.0, 1.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]]
    doc = _tree_doc(weights, [["s0", "s1"], ["s2"], [], ["s3"]], [1.0, 0.0, 0.0, 0.0],
                    parent_mqe=0.5, tau2=1.0)
    assert any("growth caps" in e for e in checks.tree_errors(doc, values, (4, 64)))
    # four units over four routed samples sit at a one-unit-per-sample cap
    assert checks.tree_errors(doc, values, (1, 64)) == []


def test_quantized_inputs_survive_text_round_trip():
    table = inputs.wide_table(0, per_sub=2, spread=0.15, n_attributes=40,
                              noise_lo=0.01, noise_hi=0.05)
    assert all(float("%.12g" % v) == v for v in table.values.ravel())


def test_nested_blob_parts_are_independent_and_repeatable():
    a, b = (inputs.nested_blobs(0, 5, 0.25, n_coarse=8, part=p) for p in (0, 1))
    assert not np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, inputs.nested_blobs(0, 5, 0.25, n_coarse=8, part=0).values)


def test_per_round_is_mean_of_medians_per_data_set():
    from run import per_round

    assert per_round([3.0, 1.0, 2.0], 1) == 2.0
    # data set 0: 1, 3, 9 (median 3); data set 1: 10, 20, 30 (median 20)
    assert per_round([1.0, 10.0, 3.0, 20.0, 9.0, 30.0], 2) == pytest.approx(11.5)


def test_clock_divides_by_the_bracketing_kernel_times(monkeypatch):
    import calibrate

    monkeypatch.setattr(calibrate, "SAMPLE_EVERY", 2.0)
    # warm-up, before step 1 (two samples), after step 1 (1 s: the
    # minimum of two), after step 2 (5 s: three samples)
    times = iter([9.0, 0.2, 0.2, 0.2, 0.4, 0.1, 0.3, 0.1])
    monkeypatch.setattr(calibrate, "kernel_seconds", lambda: next(times))
    clock = calibrate.Clock()
    assert clock.normalised(1.0) == pytest.approx(1.0 * calibrate.REFERENCE_S / 0.2)
    # median of 0.2, 0.4, 0.1, 0.3, 0.1
    assert clock.normalised(5.0) == pytest.approx(5.0 * calibrate.REFERENCE_S / 0.2)
    assert clock.kernel == [0.2, 0.2, 0.2, 0.4, 0.1, 0.3, 0.1]


def test_covered_merges_overlapping_intervals():
    from tracing import _covered

    assert _covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert _covered([(1.0, 3.0)], 2.0, 10.0) == 1.0


def test_layer_metrics_counts_recursion_once():
    from tracing import Span, layer_metrics

    tree = {"maps": 2, "units": 8, "capped_maps": 1, "occupied_units": 6}
    spans = [
        Span(0, None, "ghsom.run_ghsom", 1, 0.0, 10.0, tree),
        Span(1, 0, "ghsom.expand_hierarchy", 1, 2.0, 9.0),
        Span(2, 1, "ghsom.train_map", 1, 2.5, 4.5, {"sample_updates": 100, "units": 4}),
        Span(3, 1, "ghsom.expand_hierarchy", 1, 5.0, 8.0),
        Span(4, 3, "ghsom.train_map", 1, 5.0, 7.0, {"sample_updates": 50, "units": 4}),
    ]
    m = layer_metrics(spans)
    assert m["ghsom.run_ghsom.s"] == 10.0
    assert m["ghsom.train_map.s"] == 4.0
    assert m["ghsom.train_map.unit_updates"] == 600
    assert m["ghsom.train_map.ns_per_unit_update"] == pytest.approx(4e9 / 600)
    # outer: 7 s less 2 s of training and 3 s of the inner call; inner: 3 s less 2 s
    assert m["ghsom.expand_hierarchy.self_s"] == pytest.approx(3.0)
    assert m["ghsom.occupied_unit_ratio"] == 0.75
