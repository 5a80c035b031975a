import csv
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghsomkit import (
    DataMatrix,
    GhsomParams,
    LeafPartition,
    adjusted_rand_index,
    ari,
    ch_index,
    gaussian_blobs,
    leaf_partition,
    nested_blobs,
    planted_attributes,
    prune,
    run_ghsom,
    sweep,
)
from ghsomkit.evaluation import SweepCell, save_sweep_summary, sweep_summary, sweep_to_csv
from ghsomkit.ghsom import FlatTree
from oracles import ari_contingency, ari_pair_counting, ch_index_loop, ch_naive, leaf_labels


def _part(values, clusters):
    values = np.asarray(values, dtype=float)
    ids = [f"s{i}" for i in range(values.shape[0])]
    m = DataMatrix(values, ids, [f"f{j}" for j in range(values.shape[1])])
    return LeafPartition(ids, list(clusters)), m


# ---------------------------------------------------------------- CH


def test_ch_hand_case_is_fifty():
    part, m = _part([[0.0], [2.0], [10.0], [12.0]], "AABB")
    assert ch_index(part, m) == pytest.approx(50.0, rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_ch_matches_naive_two_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    dim = int(rng.integers(1, 10))
    k = int(rng.integers(2, 7))
    values = rng.normal(size=(n, dim))
    clusters = [f"c{i % k}" for i in range(k)] + [
        f"c{rng.integers(k)}" for _ in range(n - k)
    ]
    part, m = _part(values, clusters)
    want = ch_naive(values.tolist(), clusters)
    assert ch_index(part, m) == pytest.approx(want, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.floats(-100.0, 100.0))
def test_ch_translation_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(30, 4))
    clusters = ["a"] * 10 + ["b"] * 10 + ["c"] * 10
    part, m = _part(values, clusters)
    part2, m2 = _part(values + shift * rng.normal(size=4), clusters)
    assert ch_index(part2, m2) == pytest.approx(ch_index(part, m), rel=1e-9)


def test_ch_zero_within_scatter_is_inf():
    part, m = _part([[0.0], [0.0], [5.0], [5.0], [9.0]], "AABBC")
    assert ch_index(part, m) == math.inf


def test_ch_all_identical_is_zero():
    part, m = _part([[3.0]] * 5, "AABBC")
    assert ch_index(part, m) == 0.0


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 17])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_ch_matches_per_cluster_loop_bitwise(dim, layout):
    # clusters of 1 to 300 rows in shuffled order, on an offset and
    # unevenly scaled matrix, so every sum rounds; numpy sums a cluster's
    # rows one way for one attribute (pairwise) and another for several
    rng = np.random.default_rng(dim)
    sizes = [1, 2, 7, 8, 9, 16, 17, 40, 129, 300]
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    values = rng.normal(size=(len(labels), dim)) * 10.0 ** rng.uniform(-3, 3, size=dim)
    values = np.asarray(values + 100.0 * rng.normal(size=dim), order=layout)
    part, m = _part(values, [f"c{label}" for label in labels])
    assert _bits(ch_index(part, m)) == _bits(ch_index_loop(part, m))


@pytest.mark.parametrize("values, clusters", [
    ([[0.0], [0.0], [5.0], [5.0], [9.0]], "AABBC"),  # inf, with a singleton
    ([[3.0]] * 5, "AABBC"),  # 0.0
    ([[1.0, 2.0], [1.0, 2.0], [-4.0, 0.5], [7.0, 7.0]], "AABC"),  # two singletons
    ([[0.5, -1.0], [2.0, 3.0], [0.5, -1.0], [4.0, 1.0], [2.5, 0.0]], "ABACB"),
])
def test_ch_matches_per_cluster_loop_on_degenerate_partitions(values, clusters):
    part, m = _part(values, clusters)
    assert _bits(ch_index(part, m)) == _bits(ch_index_loop(part, m))


def test_ch_matches_per_cluster_loop_on_fitted_partitions(blob_tree, blob_matrix,
                                                         nested_tree, nested_matrix):
    for tree, m in [(blob_tree, blob_matrix), (nested_tree, nested_matrix)]:
        part = leaf_partition(tree)
        assert len(part.cluster_names()) > 2
        assert _bits(ch_index(part, m)) == _bits(ch_index_loop(part, m))


def test_ch_errors():
    part, m = _part([[0.0], [1.0], [2.0]], "AAA")
    with pytest.raises(ValueError, match="at least 2 clusters"):
        ch_index(part, m)
    part, m = _part([[0.0], [1.0]], "AB")
    with pytest.raises(ValueError, match="more samples than clusters"):
        ch_index(part, m)
    part, _ = _part([[0.0], [1.0], [2.0]], "ABA")
    other = DataMatrix(np.zeros((3, 1)), ["x", "y", "z"], ["f0"])
    with pytest.raises(ValueError, match="different sample ids"):
        ch_index(part, other)


# ---------------------------------------------------------------- ARI


def test_ari_hand_cases():
    assert adjusted_rand_index("AABB", "AABB") == 1.0
    assert adjusted_rand_index("AABB", "XXYY") == 1.0  # renaming-invariant
    assert adjusted_rand_index("AABB", "XYXY") == pytest.approx(-0.5)


def test_ari_symmetry():
    a = [0, 0, 1, 2, 2, 1, 0]
    b = ["x", "y", "y", "x", "z", "z", "x"]
    assert adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(b, a), abs=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_ari_matches_both_oracles(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    a = rng.integers(0, 4, size=n).tolist()
    b = rng.integers(0, 4, size=n).tolist()
    got = adjusted_rand_index(a, b)
    assert got == pytest.approx(ari_pair_counting(a, b), abs=1e-12)
    assert got == pytest.approx(ari_contingency(a, b), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=20),
    st.data(),
)
def test_ari_bounded_and_one_iff_identical_partition(a, data):
    b = data.draw(st.lists(st.integers(0, 3), min_size=len(a), max_size=len(a)))
    v = adjusted_rand_index(a, b)
    assert v <= 1.0 + 1e-12
    # canonical renaming: 1.0 exactly when the partitions coincide
    def canon(xs):
        codes = {}
        return tuple(codes.setdefault(x, len(codes)) for x in xs)

    if canon(a) == canon(b):
        assert v == pytest.approx(1.0) or v == 0.0  # 0.0 for degenerate all-singletons
    elif v == 1.0:
        pytest.fail(f"ARI 1.0 for different partitions: {a} vs {b}")


def test_ari_groups_any_hashable_labels_by_equality():
    # True == 1 == 1.0 and False == 0 share a group, as in a dict
    pred = [1, True, 1.0, "a", "a", None, None, (1, "b"), (1, "b"), 0, False, "b"]
    truth = ["x", "x", "y", "y", "y", None, "x", (2,), (2,), 3, 3, "x"]
    got = adjusted_rand_index(pred, truth)
    assert got == pytest.approx(ari_pair_counting(pred, truth), abs=1e-12)

    def codes(xs):
        seen = {}
        return [seen.setdefault(x, len(seen)) for x in xs]

    assert got == adjusted_rand_index(codes(pred), codes(truth))


def test_ari_degenerate_returns_zero_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="ghsomkit.evaluation"):
        # singletons vs singletons: no within-pairs on either side
        assert adjusted_rand_index([0, 1, 2], ["a", "b", "c"]) == 0.0
    assert any("denominator" in r.message for r in caplog.records)
    assert adjusted_rand_index([0, 0, 0], ["x", "x", "x"]) == 0.0


def test_ari_errors():
    with pytest.raises(ValueError, match="differ in length"):
        adjusted_rand_index([1, 2], [1])
    with pytest.raises(ValueError, match="at least 2"):
        adjusted_rand_index([1], [1])


def test_ari_partition_wrapper():
    part, _ = _part(np.zeros((4, 1)), "AABB")
    labels = ["x", "x", "y", "y"]
    assert ari(part, labels) == adjusted_rand_index(part.clusters, labels)
    with pytest.raises(ValueError, match="labels length"):
        ari(part, ["x"])


# ---------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def sweep_inputs():
    m = gaussian_blobs(n_clusters=3, per_cluster=20, dim=4, spread=0.1, separation=6.0, seed=1)
    params = GhsomParams(lam=10, rng_seed=1)
    return m, params


def test_sweep_covers_cartesian_product(sweep_inputs):
    m, params = sweep_inputs
    grid = sweep(m, params, [0.3, 0.1], [0.5, 0.2], labels=m.labels)
    assert grid.tau1_values == [0.3, 0.1]
    assert grid.tau2_values == [0.5, 0.2]
    assert set(grid.cells) == {(t1, t2) for t1 in (0.3, 0.1) for t2 in (0.5, 0.2)}
    for cell in grid.cells.values():
        assert cell.error is None
        assert cell.leaf_count >= 1
        assert cell.ari is not None


def test_sweep_ari_absent_without_labels(sweep_inputs):
    m, params = sweep_inputs
    grid = sweep(m, params, [0.3], [0.5])
    assert all(c.ari is None for c in grid.cells.values())


def test_sweep_deterministic_and_thread_independent(sweep_inputs):
    m, params = sweep_inputs
    a = sweep(m, params, [0.3, 0.1], [0.5, 0.2], labels=m.labels)
    b = sweep(m, params, [0.3, 0.1], [0.5, 0.2], labels=m.labels, threads=3)
    assert a.cells == b.cells


def test_sweep_single_leaf_cell_has_nan_ch():
    values = np.zeros((6, 2))
    m = DataMatrix(values, [f"s{i}" for i in range(6)], ["f0", "f1"])
    grid = sweep(m, GhsomParams(lam=2, rng_seed=0), [1.0], [1.0], labels=list("aabbcc"))
    cell = grid.cell(1.0, 1.0)
    assert cell.error is None
    assert cell.leaf_count == 1
    assert math.isnan(cell.ch)
    assert grid.best_by("ch") is None


def test_sweep_isolates_failing_cells(sweep_inputs, monkeypatch):
    m, params = sweep_inputs
    import ghsomkit.evaluation as ev

    real = ev.run_ghsom

    def sometimes_broken(matrix, p, threads=1):
        if p.tau1 == 0.1:
            raise RuntimeError("boom")
        return real(matrix, p, threads=threads)

    monkeypatch.setattr(ev, "run_ghsom", sometimes_broken)
    grid = sweep(m, params, [0.3, 0.1], [0.5], labels=m.labels)
    assert grid.cell(0.1, 0.5).error == "boom"
    assert grid.cell(0.3, 0.5).error is None
    summary = sweep_summary(grid)
    assert summary["n_failed"] == 1
    assert summary["best_by_ch"]["tau1"] == 0.3


def test_sweep_invalid_tau2_fails_only_its_cells(sweep_inputs):
    m, params = sweep_inputs
    grid = sweep(m, params, [0.3, 0.1], [0.0, 0.2], labels=m.labels)
    for t1 in (0.3, 0.1):
        bad = grid.cell(t1, 0.0)
        assert bad.error == "tau2 must be in (0, 1]"
        assert bad.leaf_count is None and bad.ch is None
        tree = run_ghsom(m, replace(params, tau1=t1, tau2=0.2))
        part = leaf_partition(tree)
        assert grid.cell(t1, 0.2) == SweepCell(
            tau1=t1,
            tau2=0.2,
            ch=ch_index(part, m),
            ari=ari(part, m.labels),
            leaf_count=len(part.cluster_names()),
            depth=tree.depth(),
            total_units=tree.total_units(),
        )


def test_sweep_fits_once_per_tau1(sweep_inputs, monkeypatch):
    m, params = sweep_inputs
    import ghsomkit.evaluation as ev

    real = ev.run_ghsom
    fitted = []

    def counting(matrix, p, threads=1):
        fitted.append((p.tau1, p.tau2))
        if p.tau1 == 0.1:
            raise RuntimeError("boom")
        return real(matrix, p, threads=threads)

    monkeypatch.setattr(ev, "run_ghsom", counting)
    grid = sweep(m, params, [0.3, 0.1], [0.5, 0.2, 0.1], labels=m.labels)
    assert fitted == [(0.3, 0.1), (0.1, 0.1)]
    assert [grid.cell(0.1, t2).error for t2 in (0.5, 0.2, 0.1)] == ["boom"] * 3
    assert all(grid.cell(0.3, t2).error is None for t2 in (0.5, 0.2, 0.1))


def test_sweep_rejects_empty_axes(sweep_inputs):
    m, params = sweep_inputs
    with pytest.raises(ValueError, match="non-empty"):
        sweep(m, params, [], [0.1])


def test_sweep_rejects_misaligned_labels_before_fitting(sweep_inputs, monkeypatch):
    m, params = sweep_inputs
    import ghsomkit.evaluation as ev

    fitted = []
    monkeypatch.setattr(ev, "run_ghsom", lambda matrix, p, threads=1: fitted.append(p))
    with pytest.raises(ValueError, match="labels length 59 != 60 samples"):
        sweep(m, params, [0.3, 0.1], [0.5, 0.2], labels=m.labels[:-1])
    assert fitted == []


def _direct_cell(m, params, labels):
    """The cell a sweep must give at ``params``, from a direct fit."""
    tree = run_ghsom(m, params)
    part = leaf_partition(tree)
    try:
        ch = ch_index(part, m)
    except ValueError:
        ch = float("nan")
    return SweepCell(tau1=params.tau1, tau2=params.tau2, ch=ch, ari=ari(part, labels),
                     leaf_count=len(part.cluster_names()), depth=tree.depth(),
                     total_units=tree.total_units())


def _boundary_tau2(tree):
    """The tau2 values above the fitted one at which a child map's unit
    error is exactly its expansion threshold, where ``>=`` keeps the child
    and ``>`` would drop it."""
    for som in tree.iter_maps():
        reference = tree.mqe0 if tree.params.depth_reference == "global" else som.parent_mqe
        for key in som.children:
            error = float(som.unit_mqe[key])
            tau2 = error / reference
            if tree.params.tau2 < tau2 <= 1 and tau2 * reference == error:
                yield tau2


@pytest.mark.parametrize("data_seed", [0, 1, 2, None])
@pytest.mark.parametrize("depth_reference", ["global", "parent"])
@pytest.mark.parametrize("max_depth", [2, 10])
def test_sweep_cells_equal_direct_fits(data_seed, depth_reference, max_depth):
    # small two-scale data at three seeds, and equal rows (None) whose
    # cells have a single leaf; the tau lists hold a duplicate, an invalid
    # value and every tau2 at which a unit's error equals its threshold,
    # so the rule is checked where it is tight, and (data seed 2, parent
    # reference, tau1 0.3) where a map is pruned whose child map's unit
    # still reaches its own threshold
    if data_seed is None:
        m = DataMatrix(np.zeros((12, 2)), [f"s{i}" for i in range(12)], ["f0", "f1"],
                       labels=list("aabbccddeeff"))
    else:
        m = nested_blobs(n_coarse=3, n_sub=2, per_sub=6, dim=3, spread=0.2, seed=data_seed)
    base = GhsomParams(lam=5, rng_seed=data_seed or 0, max_depth=max_depth,
                       depth_reference=depth_reference)
    tau1s = [0.6, 0.3, 0.3]
    tau2s = [0.5, 0.2, 0.05, 0.05, 0.0]
    deep = {t1: run_ghsom(m, replace(base, tau1=t1, tau2=0.05)) for t1 in tau1s}
    tau2s += sorted({t for tree in deep.values() for t in _boundary_tau2(tree)})
    grid = sweep(m, base, tau1s, tau2s, labels=m.labels)
    assert len(grid.cells) == 2 * len(set(tau2s))
    assert all(grid.cell(t1, 0.0).error == "tau2 must be in (0, 1]" for t1 in tau1s)
    single = 0
    for (t1, t2), cell in grid.cells.items():
        if t2 == 0.0:
            continue
        want = _direct_cell(m, replace(base, tau1=t1, tau2=t2), m.labels)
        assert _bits(cell.ch) == _bits(want.ch), (t1, t2)
        assert replace(cell, ch=None) == replace(want, ch=None), (t1, t2)
        flat = FlatTree(deep[t1])
        got = flat.partition(flat.survivors(t2)).clusters
        assert got == leaf_partition(prune(deep[t1], t2)).clusters, (t1, t2)
        single += cell.leaf_count == 1
    assert (single > 0) == (data_seed is None)


def _oracle_inputs(case):
    """A matrix, its labels and a base of the parameters for the oracle
    chain: noisy nested blobs at three seeds, a planted-attribute matrix
    with its cluster labels, and equal rows with one label,
    whose every cell is a single leaf (NaN CH) against a single label
    (degenerate ARI)."""
    if case == "planted":
        m, _ = planted_attributes(n_clusters=4, per_cluster=15, n_attributes=6, seed=3)
        return m, m.labels, GhsomParams(lam=8, rng_seed=3)
    if case == "constant":
        m = DataMatrix(np.ones((10, 3)), [f"s{i}" for i in range(10)], ["f0", "f1", "f2"])
        return m, ["a"] * 10, GhsomParams(lam=4, rng_seed=0)
    seed = int(case.removeprefix("noisy-"))
    m = nested_blobs(n_coarse=4, n_sub=3, per_sub=5, dim=4, spread=0.4, seed=seed)
    return m, m.labels, GhsomParams(lam=10, rng_seed=seed)


@pytest.mark.parametrize("case", ["noisy-0", "noisy-1", "noisy-4", "planted", "constant"])
def test_sweep_cells_equal_oracle_chain_bitwise(case, caplog):
    # every cell, by repr, is what the slow chain gives: the pruned deep
    # tree, its leaf partition, CH by a per-cluster numpy loop and ARI by
    # O(n^2) pair counting through the package's float formula; the sweep
    # scores from integer leaf codes and none of these
    m, labels, base = _oracle_inputs(case)
    tau1s, tau2s = (0.6, 0.45, 0.3), (0.2, 0.1, 0.05)
    with caplog.at_level(logging.WARNING, logger="ghsomkit.evaluation"):
        grid = sweep(m, base, tau1s, tau2s, labels=labels)
    kinds = set()
    for t1 in tau1s:
        deep = run_ghsom(m, replace(base, tau1=t1, tau2=min(tau2s)))
        for t2 in tau2s:
            part = leaf_partition(prune(deep, t2))
            single = len(part.cluster_names()) < 2
            want_ch = float("nan") if single else ch_index_loop(part, m)
            want_ari = ari_pair_counting(part.clusters, labels, exact=False)
            cell = grid.cell(t1, t2)
            assert cell.error is None
            assert (repr(cell.ch), repr(cell.ari)) == (repr(want_ch), repr(want_ari)), (t1, t2)
            assert cell.ari == pytest.approx(ari_pair_counting(part.clusters, labels), abs=1e-12)
            kinds.add("single" if single else "several")
    if case == "constant":
        assert kinds == {"single"} and grid.cell(0.6, 0.2).ari == 0.0
        assert any("denominator" in r.message for r in caplog.records)
    else:
        assert "several" in kinds


def test_sweep_cell_scoring_builds_no_string_per_sample(sweep_inputs):
    m, params = sweep_inputs
    flat = FlatTree(run_ghsom(m, replace(params, tau1=0.1, tau2=0.1)))
    part = flat.partition(flat.survivors(0.2))
    ch_index(part, m)
    ari(part, m.labels)
    assert part._clusters is None and part._index is None


def _partition_views(part):
    names = part.cluster_names()
    return (part.clusters, names, [part.members(c).tolist() for c in names],
            list(part.sizes().items()))


@pytest.mark.parametrize("t2", [0.2, 0.1, 0.05])
def test_partitions_from_codes_and_from_names_agree(t2):
    # the cut of a flattened tree, the leaf partition of the pruned tree
    # and the public constructor on each sample's leaf name give the same
    # clusters, names, members, sizes and codes, whichever is read first;
    # each code is the place of the sample's cluster in cluster_names()
    m = nested_blobs(n_coarse=4, n_sub=3, per_sub=5, dim=4, spread=0.4, seed=2)
    deep = run_ghsom(m, GhsomParams(tau1=0.3, tau2=0.05, lam=10, rng_seed=2))
    flat = FlatTree(deep)
    pruned = prune(deep, t2)
    cut = flat.partition(flat.survivors(t2))
    flattened = leaf_partition(pruned)
    named = LeafPartition(list(m.sample_ids), leaf_labels(pruned))
    want = _partition_views(named)
    assert len(want[1]) > 2
    assert _partition_views(cut) == want
    # members and sizes before the per-sample list
    names = flattened.cluster_names()
    members = [flattened.members(c).tolist() for c in names]
    sizes = list(flattened.sizes().items())
    assert (flattened.clusters, names, members, sizes) == want
    assert cut == flattened == named
    place = {c: k for k, c in enumerate(want[1])}
    assert named.codes.tolist() == [place[c] for c in want[0]]
    for part in (cut, flattened):
        assert part.codes.tolist() == named.codes.tolist()
    for part in (cut, flattened, named):
        assert part.members(want[1][0]).dtype == np.intp
        with pytest.raises(KeyError, match="unknown cluster"):
            part.members("no such cluster")


def test_sweep_csv_and_summary_roundtrip(tmp_path, sweep_inputs):
    m, params = sweep_inputs
    grid = sweep(m, params, [0.3, 0.1], [0.2], labels=m.labels)
    p = tmp_path / "sweep.csv"
    sweep_to_csv(grid, p)
    with open(p, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        cell = grid.cell(float(row["tau1"]), float(row["tau2"]))
        assert float(row["ch"]) == cell.ch
        assert float(row["ari"]) == cell.ari
        assert int(row["leaf_count"]) == cell.leaf_count
        assert int(row["total_units"]) == cell.total_units
        assert row["error"] == ""

    sp = tmp_path / "summary.json"
    save_sweep_summary(grid, sp)
    import json

    doc = json.loads(sp.read_text())
    assert doc["n_cells"] == 2
    assert doc["best_by_ari"]["ari"] == max(c.ari for c in grid.cells.values())
