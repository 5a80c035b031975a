"""Significant-attribute identification for leaf clusters.

For a target cluster, each attribute gets two spreads: ``sigma_i``, the
population standard deviation of the attribute inside the cluster, and
``sigma_b``, the spread of the attribute's per-cluster means around the
target cluster's mean,

    sigma_b = sqrt( sum over other clusters (m_c - m_c')^2 / (|C| - 1) ).

Attributes with large ``diff = sigma_b - sigma_i`` are coherent inside
the cluster yet displaced from everywhere else; the top-k ranking of
diff is the cluster's significant-attribute list.

``identify_significant_each`` ranks many clusters from one computation
of every cluster's mean, and ``identify_significant`` is its one-cluster
case. ``sigma_within`` and ``sigma_between`` give the ranking's own spreads,
and ``significance_difference_feature`` the ranking's own top-k list through
``significance_distance``, which the feature map draws as well.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import DataMatrix
from .ghsom import LeafPartition


@dataclass(frozen=True)
class AttributeScore:
    cluster: str
    attribute: str
    sigma_i: float
    sigma_b: float
    diff: float
    rank: int


def _check_aligned(partition: LeafPartition, m: DataMatrix) -> None:
    if partition.sample_ids != m.sample_ids:
        raise ValueError("partition and data matrix list different sample ids")


def _cluster_means(
    partition: LeafPartition, m: DataMatrix, clusters: list[str]
) -> tuple[dict[str, int], np.ndarray]:
    """The mean vector of every cluster of the partition, and each
    cluster's row in them, once ``clusters`` are checked to be rankable."""
    _check_aligned(partition, m)
    names = partition.cluster_names()
    row = {c: i for i, c in enumerate(names)}
    for cluster in clusters:
        if cluster not in row:
            raise KeyError(f"unknown cluster '{cluster}'")
    if len(names) < 2:
        raise ValueError("significant-attribute ranking needs at least 2 clusters")
    return row, np.vstack([m.values[partition.members(c)].mean(axis=0) for c in names])


def _spreads(
    partition: LeafPartition, m: DataMatrix, means: np.ndarray, i: int, cluster: str
) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma_i, sigma_b)`` of ``cluster``, row ``i`` of ``means``, one
    entry per attribute."""
    sigma_i = m.values[partition.members(cluster)].std(axis=0)
    # the self term is zero, so summing over all clusters equals the
    # sum over the others; only the normalizer excludes the target
    sq = ((means - means[i]) ** 2).sum(axis=0)
    return sigma_i, np.sqrt(sq / (len(means) - 1))


def sigma_within(
    partition: LeafPartition, m: DataMatrix, cluster: str, attribute: str
) -> float:
    """Population standard deviation of one attribute inside one cluster,
    computed as the ranking computes ``sigma_i``."""
    _check_aligned(partition, m)
    g = m.attribute_index(attribute)
    return float(m.values[partition.members(cluster)].std(axis=0)[g])


def sigma_between(
    partition: LeafPartition, m: DataMatrix, cluster: str, attribute: str
) -> float:
    """Spread of an attribute's cluster means around the target cluster.

    Sums squared differences between the target cluster's mean and every
    other cluster's mean, normalized by the number of other clusters.
    """
    row, means = _cluster_means(partition, m, [cluster])
    _, sigma_b = _spreads(partition, m, means, row[cluster], cluster)
    return float(sigma_b[m.attribute_index(attribute)])


def identify_significant(
    partition: LeafPartition,
    m: DataMatrix,
    cluster: str,
    k: int | None = None,
) -> list[AttributeScore]:
    """Rank attributes of a cluster by diff = sigma_b - sigma_i.

    Returns the top ``k`` (default: 10, reduced when fewer attributes
    exist) sorted by descending diff, ties broken by attribute name;
    ranks start at 1. Explicit ``k`` above the attribute count is an
    error.
    """
    return identify_significant_each(partition, m, [cluster], k)


def identify_significant_each(
    partition: LeafPartition,
    m: DataMatrix,
    clusters: list[str] | None = None,
    k: int | None = None,
) -> list[AttributeScore]:
    """``identify_significant`` of each of ``clusters`` (default: every
    leaf, in name order), concatenated, with every cluster's mean
    computed once rather than once per ranked cluster."""
    if clusters is None:
        clusters = partition.cluster_names()
    row, means = _cluster_means(partition, m, clusters)
    if k is None:
        k = min(10, m.n_attributes)
    if not 1 <= k <= m.n_attributes:
        raise ValueError(f"k must be in [1, {m.n_attributes}], got {k}")

    # each attribute's place in name order: Python's string order, which
    # a numpy string sort does not keep (it ignores trailing NULs)
    names = m.attribute_names
    name_rank = np.empty(len(names), dtype=np.intp)
    name_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    scores = []
    for cluster in clusters:
        sigma_i, sigma_b = _spreads(partition, m, means, row[cluster], cluster)
        diff = sigma_b - sigma_i
        # descending diff, ties (-0.0 == 0.0 among them) by name
        order = np.lexsort((name_rank, -diff))
        scores.extend(
            AttributeScore(
                cluster=cluster,
                attribute=names[g],
                sigma_i=float(sigma_i[g]),
                sigma_b=float(sigma_b[g]),
                diff=float(diff[g]),
                rank=rank,
            )
            for rank, g in enumerate(order[:k], start=1)
        )
    return scores


def significance_distance(
    partition: LeafPartition,
    m: DataMatrix,
    target_cluster: str,
    k: int | None = None,
) -> Callable[[np.ndarray], float]:
    """Distance to the target cluster over its significant attributes.

    Returns a function of sample indices: the Euclidean distance between
    those samples' mean vector and the target cluster's, restricted to
    the target's top-k attributes. Both means take the same route, so
    the target's own members are at distance exactly 0.
    """
    scores = identify_significant(partition, m, target_cluster, k)
    cols = np.array([m.attribute_index(s.attribute) for s in scores], dtype=np.intp)
    # m.values[rows][:, cols], not np.ix_: another memory layout sums in
    # another order and would cost the target its exact zero
    target = m.values[partition.members(target_cluster)][:, cols].mean(axis=0)

    def distance(rows: np.ndarray) -> float:
        # numpy's pairwise sum, not np.linalg.norm: its BLAS dot product
        # rounds as the BLAS build and the CPU's kernel do
        d = m.values[rows][:, cols].mean(axis=0) - target
        return float(np.sqrt(np.add.reduce(d * d)))

    return distance


def significance_difference_feature(
    partition: LeafPartition,
    m: DataMatrix,
    target_cluster: str,
    k: int | None = None,
) -> dict[str, float]:
    """``significance_distance`` of every leaf cluster; the target maps to 0."""
    distance = significance_distance(partition, m, target_cluster, k)
    return {c: distance(partition.members(c)) for c in partition.cluster_names()}


def save_scores_csv(scores: list[AttributeScore], path) -> None:
    """Write scores as CSV: cluster, rank, attribute, sigma_i, sigma_b, diff."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "rank", "attribute", "sigma_i", "sigma_b", "diff"])
        for s in scores:
            writer.writerow(
                [s.cluster, s.rank, s.attribute, repr(s.sigma_i), repr(s.sigma_b), repr(s.diff)]
            )
