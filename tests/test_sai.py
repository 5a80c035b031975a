import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghsomkit import (
    DataMatrix,
    LeafPartition,
    gaussian_blobs,
    identify_significant,
    planted_attributes,
    save_scores_csv,
    sigma_between,
    sigma_within,
    significance_difference_feature,
)
from ghsomkit.sai import identify_significant_each, significance_distance
from oracles import identify_significant_alone, sigma_between_naive, sigma_within_naive


def _labeled_matrix(values, clusters, attr_names=None):
    values = np.asarray(values, dtype=float)
    n, a = values.shape
    ids = [f"s{i}" for i in range(n)]
    names = attr_names or [f"f{j}" for j in range(a)]
    return DataMatrix(values, ids, names), LeafPartition(ids, list(clusters))


def _random_clustered(seed, n=50, a=10, n_clusters=6):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, a)) * rng.uniform(0.5, 3.0, size=a)
    # every cluster non-empty: first n_clusters samples pinned
    clusters = [f"c{i % n_clusters}" for i in range(n_clusters)]
    clusters += [f"c{rng.integers(n_clusters)}" for _ in range(n - n_clusters)]
    return _labeled_matrix(values, clusters)


def test_sigma_hand_case():
    m, part = _labeled_matrix([[0.0], [0.0], [2.0], [2.0], [5.0], [5.0]], "AAAABB")
    assert sigma_within(part, m, "A", "f0") == 1.0
    assert sigma_within(part, m, "B", "f0") == 0.0
    # one other cluster: sigma_b is just the mean gap
    assert sigma_between(part, m, "A", "f0") == 4.0
    assert sigma_between(part, m, "B", "f0") == 4.0


def test_sigma_between_three_clusters():
    m, part = _labeled_matrix([[0.0], [0.0], [3.0], [3.0], [6.0], [6.0]], "AABBCC")
    assert sigma_between(part, m, "A", "f0") == pytest.approx(math.sqrt((9 + 36) / 2))


@pytest.mark.parametrize("seed", range(6))
def test_sigma_oracle_equivalence(seed):
    """Direct-summation oracle agreement on every (cluster, attribute)."""
    m, part = _random_clustered(seed)
    means = {c: m.values[part.members(c)].mean(axis=0) for c in part.cluster_names()}
    ranked = {c: identify_significant(part, m, c, k=m.n_attributes) for c in part.cluster_names()}
    for c in part.cluster_names():
        by_attr = {s.attribute: s for s in ranked[c]}
        for g, name in enumerate(m.attribute_names):
            col = m.values[part.members(c), g].tolist()
            want_i = sigma_within_naive(col)
            others = [float(means[o][g]) for o in part.cluster_names() if o != c]
            want_b = sigma_between_naive(float(means[c][g]), others)
            assert sigma_within(part, m, c, name) == pytest.approx(want_i, rel=1e-12, abs=1e-15)
            assert sigma_between(part, m, c, name) == pytest.approx(want_b, rel=1e-12, abs=1e-15)
            s = by_attr[name]
            assert s.sigma_i == pytest.approx(want_i, rel=1e-12, abs=1e-15)
            assert s.sigma_b == pytest.approx(want_b, rel=1e-12, abs=1e-15)
            assert s.diff == pytest.approx(want_b - want_i, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_sigma_between_is_the_rankings_sigma_b(seed):
    # one computation: exact equality, not approx
    m, part = _random_clustered(seed)
    for c in part.cluster_names():
        for s in identify_significant(part, m, c, k=m.n_attributes):
            assert sigma_between(part, m, c, s.attribute) == s.sigma_b


@pytest.mark.parametrize("seed", range(6))
def test_sigma_within_is_the_rankings_sigma_i(seed):
    m, part = _random_clustered(seed)
    for c in part.cluster_names():
        for s in identify_significant(part, m, c, k=m.n_attributes):
            assert sigma_within(part, m, c, s.attribute) == s.sigma_i


@pytest.mark.parametrize("spread,field", [(sigma_within, "sigma_i"), (sigma_between, "sigma_b")])
def test_both_spreads_are_the_rankings_on_wide_blobs(spread, field):
    # 160 (cluster, attribute) pairs of 300 samples each: a one-column
    # std sums in another order than the ranking's std(axis=0) and
    # differs from it in the last bits on most of them
    m = gaussian_blobs(4, 300, 40, spread=0.7, seed=3)
    part = LeafPartition(sample_ids=m.sample_ids, clusters=m.labels)
    for c in part.cluster_names():
        for s in identify_significant(part, m, c, k=m.n_attributes):
            assert spread(part, m, c, s.attribute) == getattr(s, field)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 10.0), st.integers(0, 4))
def test_scale_equivariance(s, col):
    m, part = _random_clustered(seed=1, a=5)
    before = identify_significant(part, m, "c0", k=5)
    scaled = DataMatrix(
        m.values * np.where(np.arange(5) == col, s, 1.0),
        m.sample_ids,
        m.attribute_names,
    )
    after = identify_significant(part, scaled, "c0", k=5)
    b = {x.attribute: x for x in before}
    a = {x.attribute: x for x in after}
    name = m.attribute_names[col]
    assert a[name].sigma_i == pytest.approx(s * b[name].sigma_i, rel=1e-9)
    assert a[name].sigma_b == pytest.approx(s * b[name].sigma_b, rel=1e-9)
    assert a[name].diff == pytest.approx(s * b[name].diff, rel=1e-9)
    # order among untouched attributes is preserved
    rest_before = [x.attribute for x in before if x.attribute != name]
    rest_after = [x.attribute for x in after if x.attribute != name]
    assert rest_before == rest_after


@settings(max_examples=25, deadline=None)
@given(st.floats(-50.0, 50.0), st.integers(0, 4))
def test_translation_invariance(c, col):
    m, part = _random_clustered(seed=2, a=5)
    shifted = DataMatrix(
        m.values + np.where(np.arange(5) == col, c, 0.0),
        m.sample_ids,
        m.attribute_names,
    )
    name = m.attribute_names[col]
    for cl in ("c0", "c3"):
        assert sigma_within(part, shifted, cl, name) == pytest.approx(
            sigma_within(part, m, cl, name), rel=1e-9, abs=1e-9
        )
        assert sigma_between(part, shifted, cl, name) == pytest.approx(
            sigma_between(part, m, cl, name), rel=1e-9, abs=1e-9
        )


def test_top_k_stability():
    m, part = _random_clustered(seed=3, a=14)
    full = identify_significant(part, m, "c1", k=14)
    ten = identify_significant(part, m, "c1", k=10)
    assert [(s.attribute, s.rank) for s in full[:10]] == [(s.attribute, s.rank) for s in ten]


def test_default_k_is_ten_capped_by_width():
    m, part = _random_clustered(seed=4, a=14)
    assert len(identify_significant(part, m, "c0")) == 10
    m2, part2 = _random_clustered(seed=4, a=7)
    assert len(identify_significant(part2, m2, "c0")) == 7


def test_diff_ties_break_by_attribute_name():
    # two bitwise-identical columns tie on diff; names must decide
    base = np.array([[0.0], [1.0], [10.0], [11.0]])
    values = np.column_stack([base, base, base * 0.001])
    m, part = _labeled_matrix(values, "AABB", attr_names=["zz", "aa", "mm"])
    scores = identify_significant(part, m, "A", k=3)
    assert [s.attribute for s in scores[:2]] == ["aa", "zz"]
    assert scores[0].diff == scores[1].diff
    assert [s.rank for s in scores] == [1, 2, 3]


def test_normalizer_choice_does_not_reorder_separated_head():
    # not a theorem in general, and near-tied noise attributes do flip
    # under a constant factor on sigma_b; the well-separated head (the
    # planted attributes) must rank identically under either normalizer
    for seed in range(3):
        m, planted = planted_attributes(seed=seed)
        part = LeafPartition(m.sample_ids, list(m.labels))
        n_clusters = len(part.cluster_names())
        f = math.sqrt((n_clusters - 1) / n_clusters)
        h = len(planted)
        for c in part.cluster_names():
            scores = identify_significant(part, m, c, k=m.n_attributes)
            impl = [s.attribute for s in scores]
            alt = [
                s.attribute
                for s in sorted(scores, key=lambda s: (-(f * s.sigma_b - s.sigma_i), s.attribute))
            ]
            assert impl[:h] == alt[:h]
            assert set(impl[:h]) == set(planted)


def test_errors():
    m, part = _labeled_matrix([[1.0], [2.0]], "AB")
    with pytest.raises(KeyError, match="unknown cluster"):
        sigma_between(part, m, "Z", "f0")
    with pytest.raises(KeyError, match="unknown attribute"):
        sigma_within(part, m, "A", "nope")
    with pytest.raises(ValueError, match="k must be in"):
        identify_significant(part, m, "A", k=2)
    single = LeafPartition(["s0", "s1"], ["A", "A"])
    with pytest.raises(ValueError, match="at least 2 clusters"):
        identify_significant(single, m, "A")
    other = DataMatrix(np.ones((2, 1)), ["x0", "x1"], ["f0"])
    with pytest.raises(ValueError, match="different sample ids"):
        sigma_within(part, other, "A", "f0")


@pytest.mark.parametrize("seed", range(4))
def test_identify_significant_each_matches_one_cluster_at_a_time(seed):
    # same float operations as ranking each cluster on its own: exact
    m, part = _random_clustered(seed, n=80, a=12, n_clusters=9)
    names = part.cluster_names()
    want = [s for c in names for s in identify_significant_alone(part, m, c, 5)]
    assert identify_significant_each(part, m, k=5) == want
    picked = [names[3], names[0], names[3]]
    assert identify_significant_each(part, m, picked, k=5) == [
        s for c in picked for s in identify_significant_alone(part, m, c, 5)]
    assert identify_significant(part, m, names[2], 5) == identify_significant_alone(
        part, m, names[2], 5)


def test_identify_significant_each_ties_match_oracle_exactly():
    # duplicated columns tie on diff, constant ones tie at diff 0.0 (whose
    # keys are -0.0); every tie goes to Python's name order, in which "b"
    # comes before "b\x00" (a numpy string sort would call them equal)
    base = np.random.default_rng(3).normal(size=(40, 3))
    values = np.column_stack([base, base[:, 1], base[:, 0], np.full(40, 2.0), np.zeros(40)])
    names = ["m", "b\x00", "c", "b", "a", "z", "y"]
    m, part = _labeled_matrix(values, [f"c{i % 5}" for i in range(40)], names)
    for c in part.cluster_names():
        got = identify_significant_each(part, m, [c], k=7)
        assert repr(got) == repr(identify_significant_alone(part, m, c, 7))
        attrs = [s.attribute for s in got]
        assert attrs.index("a") < attrs.index("m") and attrs.index("b") < attrs.index("b\x00")
        assert [s.attribute for s in got if s.diff == 0.0] == ["y", "z"]
        assert attrs.index("z") == attrs.index("y") + 1
    scores = identify_significant_each(part, m, k=7)
    assert scores == [s for c in part.cluster_names()
                      for s in identify_significant_alone(part, m, c, 7)]


def test_identify_significant_each_reads_each_cluster_twice(monkeypatch):
    # once for the means, once for sigma_i: linear in the leaf count
    m, part = _random_clustered(seed=1, n=120, a=4, n_clusters=30)
    calls = []
    members = LeafPartition.members
    monkeypatch.setattr(LeafPartition, "members",
                        lambda self, c: calls.append(c) or members(self, c))
    identify_significant_each(part, m)
    assert sorted(calls) == sorted(part.cluster_names() * 2)


def test_identify_significant_each_errors():
    m, part = _labeled_matrix([[1.0], [2.0]], "AB")
    with pytest.raises(KeyError, match="unknown cluster 'Z'"):
        identify_significant_each(part, m, ["A", "Z"])
    with pytest.raises(ValueError, match="k must be in"):
        identify_significant_each(part, m, k=2)
    single = LeafPartition(["s0", "s1"], ["A", "A"])
    with pytest.raises(ValueError, match="at least 2 clusters"):
        identify_significant_each(single, m)


def test_significance_feature_values():
    vals = np.array(
        [[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [0.0, 1.0], [0.0, 1.0]]
    )
    m, part = _labeled_matrix(vals, "AABBCC")
    dist = significance_difference_feature(part, m, "A", k=2)
    assert dist["A"] == 0.0
    assert dist["B"] == pytest.approx(5.0)
    assert dist["C"] == pytest.approx(1.0)


def test_significance_distance_is_numpy_pairwise_sum_bitwise():
    # np.linalg.norm's BLAS dot product rounds as the BLAS build and the
    # CPU's kernel do; numpy's pairwise sum of squares is the same bits on
    # every host
    rng = np.random.default_rng(0)
    n, a = 60, 33
    vals = rng.normal(size=(n, a)) * 10.0 ** rng.uniform(-3, 3, size=a)
    m, part = _labeled_matrix(vals, "ABC" * 20)
    for k in range(3, a + 1):
        distance = significance_distance(part, m, "A", k)
        cols = [m.attribute_index(s.attribute) for s in identify_significant(part, m, "A", k)]
        target = vals[part.members("A")][:, cols].mean(axis=0)
        for _ in range(10):
            rows = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            d = vals[rows][:, cols].mean(axis=0) - target
            assert distance(rows) == np.sqrt(np.add.reduce(d * d))
        assert distance(part.members("A")) == 0.0


def test_scores_csv_roundtrip(tmp_path):
    m, part = _random_clustered(seed=5)
    scores = identify_significant(part, m, "c2")
    p = tmp_path / "scores.csv"
    save_scores_csv(scores, p)
    with open(p, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(scores)
    for row, s in zip(rows, scores):
        assert row["cluster"] == s.cluster
        assert int(row["rank"]) == s.rank
        assert row["attribute"] == s.attribute
        assert float(row["sigma_i"]) == s.sigma_i
        assert float(row["sigma_b"]) == s.sigma_b
        assert float(row["diff"]) == s.diff


def test_planted_attributes_rank_first():
    m, planted = planted_attributes(seed=7)
    part = LeafPartition(m.sample_ids, list(m.labels))
    found = set()
    for c in part.cluster_names():
        for s in identify_significant(part, m, c, k=10):
            if s.attribute in planted:
                found.add(s.attribute)
    assert found == set(planted)
