"""End-to-end acceptance checks.

One test per release criterion; each prints a PASS/FAIL line with its
runtime (echoed again after the pytest summary) and enforces the pinned
tolerance and runtime budget.
"""

import csv
import time
from fractions import Fraction

import numpy as np

from conftest import record_criterion
from ghsomkit import (
    GhsomParams,
    LeafPartition,
    adjusted_rand_index,
    ch_index,
    leaf_coordinates,
    leaf_partition,
    DataMatrix,
    FeatureSpec,
    ari,
    gaussian_blobs,
    identify_significant,
    nested_blobs,
    planted_attributes,
    render_distribution_map,
    render_feature_map,
    run_ghsom,
    sweep,
    tiered_blobs,
)
from ghsomkit.cli import main
from helpers import WORKED_LEAF_LABELS, majority_and_purity, worked_example_tree
from oracles import (
    ari_contingency,
    ch_naive,
    label_vectors_up_to,
    leaf_units,
    sigma_between_naive,
    sigma_within_naive,
)


def _finish(name, budget, t0, failures):
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / budget {budget:g}s)"
    if failures:
        line += f" — {failures[0]}" + (f" (+{len(failures) - 1} more)" if len(failures) > 1 else "")
    record_criterion(line)
    print(line)
    assert not failures, f"{name}: {failures[:5]}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_leaf_coordinate_oracle():
    t0 = time.perf_counter()
    failures = []
    tree, _ = worked_example_tree()
    coords = {c.cluster: c for c in leaf_coordinates(tree)}
    target = coords["0x0-1x1"]
    if target.px != Fraction(3, 8):
        failures.append(f"px = {target.px}, want 3/8")
    if target.py != Fraction(3, 12):
        failures.append(f"py = {target.py}, want 3/12")
    _finish("criterion 1 (leaf coordinate oracle)", 1.0, t0, failures)


def test_criterion_2_ari_exhaustive_oracle():
    t0 = time.perf_counter()
    failures = []
    partitions = label_vectors_up_to(8, 3)
    if len(partitions) != 1094:
        failures.append(f"enumerated {len(partitions)} partitions, want 1094")
    rng = np.random.default_rng(2024)
    references = [rng.integers(0, 4, size=8).tolist() for _ in range(20)]
    for a in partitions:
        for b in references:
            got = adjusted_rand_index(list(a), b)
            want = ari_contingency(list(a), b)
            if abs(got - want) > 1e-12:
                failures.append(f"{a} vs {b}: {got} != {want}")
    if abs(adjusted_rand_index(list("AABB"), list("XYXY")) - (-0.5)) > 1e-12:
        failures.append("[A,A,B,B] vs [X,Y,X,Y] != -0.5")
    _finish("criterion 2 (ARI exhaustive oracle)", 30.0, t0, failures)


def test_criterion_3_ch_oracle():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    for trial in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k + 1, 201))
        dim = int(rng.integers(1, 11))
        values = rng.normal(size=(n, dim)) * rng.uniform(0.5, 2.0)
        # seed one sample per cluster so every trial really has k clusters
        clusters = [f"c{i}" for i in range(k)]
        clusters += [f"c{rng.integers(k)}" for _ in range(n - k)]
        ids = [f"s{i}" for i in range(n)]
        m = DataMatrix(values, ids, [f"f{j}" for j in range(dim)])
        part = LeafPartition(ids, clusters)
        got = ch_index(part, m)
        want = ch_naive(values.tolist(), clusters)
        if not np.isclose(got, want, rtol=1e-9, atol=0):
            failures.append(f"trial {trial}: {got} != {want}")
    hand_m = DataMatrix(
        np.array([[0.0], [2.0], [10.0], [12.0]]), ["a", "b", "c", "d"], ["f0"]
    )
    hand_p = LeafPartition(["a", "b", "c", "d"], ["A", "A", "B", "B"])
    if not np.isclose(ch_index(hand_p, hand_m), 50.0, rtol=1e-12):
        failures.append(f"hand case: {ch_index(hand_p, hand_m)} != 50")
    _finish("criterion 3 (CH oracle)", 10.0, t0, failures)


def test_criterion_4_stopping_soundness():
    t0 = time.perf_counter()
    failures = []
    deepest = 0
    for seed in range(50):
        m = nested_blobs(seed=seed)
        params = GhsomParams(tau1=0.2, tau2=0.1, lam=10, rng_seed=seed)
        tree = run_ghsom(m, params)
        deepest = max(deepest, tree.depth())
        for som in tree.iter_maps():
            if not som.mqe < params.tau1 * som.parent_mqe:
                failures.append(
                    f"seed {seed} map {som.path or '<root>'}: "
                    f"MQE {som.mqe:.6g} >= {params.tau1 * som.parent_mqe:.6g}"
                )
        for path, members, mqe in leaf_units(tree):
            depth = path.count("-") + 1
            if not (
                mqe < params.tau2 * tree.mqe0
                or len(members) < 4
                or depth >= params.max_depth
            ):
                failures.append(f"seed {seed} leaf {path}: expansion disjunction violated")
    if deepest < 2:
        failures.append("no run produced a hierarchy (vacuous check)")
    _finish("criterion 4 (stopping soundness, 50 seeds)", 120.0, t0, failures)


def test_criterion_5_blob_recovery():
    t0 = time.perf_counter()
    failures = []
    for seed in range(10):
        m = gaussian_blobs(
            n_clusters=4, per_cluster=50, dim=10, spread=0.1, separation=5.0, seed=seed
        )
        params = GhsomParams(tau1=0.1, tau2=0.1, lam=30, rng_seed=seed)
        tree = run_ghsom(m, params)
        score = ari(leaf_partition(tree), m.labels)
        if score < 0.95:
            failures.append(f"seed {seed}: ARI {score:.4f} < 0.95")
    _finish("criterion 5 (blob recovery, 10 seeds)", 60.0, t0, failures)


def test_criterion_6_planted_attribute_recovery():
    t0 = time.perf_counter()
    failures = []
    for seed in range(10):
        m, planted = planted_attributes(n_attributes=53, seed=seed)
        part = LeafPartition(m.sample_ids, list(m.labels))
        top10 = [s.attribute for s in identify_significant(part, m, "c0", k=10)]
        missing = [p for p in planted if p not in top10]
        if missing:
            failures.append(f"seed {seed}: planted {missing} not in top-10 {top10}")
        # oracle agreement for the target cluster, every attribute
        means = {c: m.values[part.members(c)].mean(axis=0) for c in part.cluster_names()}
        scores = identify_significant(part, m, "c0", k=m.n_attributes)
        for s in scores:
            g = m.attribute_names.index(s.attribute)
            col = m.values[part.members("c0"), g].tolist()
            want_i = sigma_within_naive(col)
            others = [float(means[o][g]) for o in part.cluster_names() if o != "c0"]
            want_b = sigma_between_naive(float(means["c0"][g]), others)
            for label, got, want in (
                ("sigma_i", s.sigma_i, want_i),
                ("sigma_b", s.sigma_b, want_b),
                ("diff", s.diff, want_b - want_i),
            ):
                if not np.isclose(got, want, rtol=1e-12, atol=1e-15):
                    failures.append(
                        f"seed {seed} {s.attribute} {label}: {got!r} != {want!r}"
                    )
    _finish("criterion 6 (planted attribute recovery)", 30.0, t0, failures)


def test_criterion_7_sweep_monotonicity():
    t0 = time.perf_counter()
    failures = []
    ladder = [0.2, 0.1, 0.05]
    m = tiered_blobs(seed=0)
    params = GhsomParams(lam=10, rng_seed=0)

    tau1_grid = sweep(m, params, ladder, [0.1])
    units = [tau1_grid.cell(t1, 0.1).total_units for t1 in ladder]
    if any(c.error for c in tau1_grid.cells.values()):
        failures.append("tau1 ladder had failing cells")
    if not all(a <= b for a, b in zip(units, units[1:])):
        failures.append(f"unit count not non-decreasing as tau1 falls: {units}")
    if units[0] == units[-1]:
        failures.append(f"tau1 ladder is flat ({units}); the check would be vacuous")

    tau2_grid = sweep(m, params, [0.1], ladder)
    depths = [tau2_grid.cell(0.1, t2).depth for t2 in ladder]
    if any(c.error for c in tau2_grid.cells.values()):
        failures.append("tau2 ladder had failing cells")
    if not all(a <= b for a, b in zip(depths, depths[1:])):
        failures.append(f"depth not non-decreasing as tau2 falls: {depths}")
    if depths[0] == depths[-1]:
        failures.append(f"tau2 ladder is flat ({depths}); the check would be vacuous")
    _finish("criterion 7 (sweep monotonicity)", 120.0, t0, failures)


def test_criterion_8_rendering_contracts():
    t0 = time.perf_counter()
    failures = []
    tree, m = worked_example_tree()
    part = leaf_partition(tree)

    svg1, geom = render_feature_map(tree, part, m, FeatureSpec(kind="mean"))
    svg2, geom2 = render_feature_map(tree, part, m, FeatureSpec(kind="mean"))
    if svg1 != svg2 or geom != geom2:
        failures.append("feature map render is not byte-identical")

    nodes = {n["path"]: n for n in geom["nodes"]}
    area = lambda n: n["width"] * n["height"]
    kids = [n for p, n in nodes.items() if p.startswith("0x0-")]
    if abs(sum(map(area, kids)) - area(nodes["0x0"])) > 1e-6 * area(nodes["0x0"]):
        failures.append("child areas do not sum to their parent's area")
    depth1 = [n for n in geom["nodes"] if n["depth"] == 1]
    plot_area = sum(map(area, depth1))
    total = sum(len(v) for v in WORKED_LEAF_LABELS.values())
    for n in depth1:
        got = area(n) / plot_area
        want = n["count"] / total
        if abs(got - want) > 0.005 * want:
            failures.append(f"area of {n['path']} off by >0.5%: {got} vs {want}")

    svg_d1, geo_d = render_distribution_map(tree, part, m, FeatureSpec(kind="label"))
    svg_d2, geo_d2 = render_distribution_map(tree, part, m, FeatureSpec(kind="label"))
    if svg_d1 != svg_d2 or geo_d != geo_d2:
        failures.append("distribution map render is not byte-identical")
    for n in geo_d["nodes"]:
        _, purity = majority_and_purity(WORKED_LEAF_LABELS[n["path"]])
        if n["opacity"] != purity:
            failures.append(f"bubble {n['path']}: opacity {n['opacity']} != purity {purity}")
    _finish("criterion 8 (rendering contracts)", 10.0, t0, failures)


def test_criterion_9_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    data_dir = tmp_path / "data"
    if main(["gen-synthetic", "--out-dir", str(data_dir), "--seed", "3",
             "--n-clusters", "3", "--per-cluster", "20", "--dim", "6",
             "--separation", "6.0", "--spread", "0.1"], env={}) != 0:
        failures.append("gen-synthetic failed")
    args = ["--input", str(data_dir / "synthetic.csv"), "--labels-column", "blob",
            "--seed", "3", "--lambda", "15", "--tau1", "0.15", "--tau2", "0.15"]
    for run_dir in ("a", "b"):
        if main(["cluster", *args, "--out-dir", str(tmp_path / run_dir)], env={}) != 0:
            failures.append(f"cluster run {run_dir} failed")
    if not failures:
        for name in ("tree.json", "partition.csv"):
            if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
                failures.append(f"{name} differs between identical runs")
    _finish("criterion 9 (end-to-end determinism)", 60.0, t0, failures)
