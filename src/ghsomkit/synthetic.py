"""Synthetic datasets for experiments and tests."""

from __future__ import annotations

import numpy as np

from .data import DataMatrix


def _matrix(values: np.ndarray, labels: list[str], label_name: str,
            attribute: str = "f{}") -> DataMatrix:
    """Samples ``s0000``, ``s0001``, ... in row order, attribute ``j``
    named ``attribute.format(j)``."""
    return DataMatrix(
        values=values,
        sample_ids=[f"s{i:04d}" for i in range(len(values))],
        attribute_names=[attribute.format(j) for j in range(values.shape[1])],
        labels=labels,
        label_name=label_name,
    )


def gaussian_blobs(
    n_clusters: int = 4,
    per_cluster: int = 50,
    dim: int = 8,
    spread: float = 0.05,
    separation: float = 1.0,
    seed: int = 0,
) -> DataMatrix:
    """Well-separated isotropic Gaussian clusters with ground-truth labels.

    Cluster ``k`` sits at ``separation`` along axis ``k % dim`` (plus a
    small deterministic offset on a second axis when clusters outnumber
    dimensions), so any pair of centers is at least ``separation`` apart
    while ``spread`` stays small.
    """
    if n_clusters < 1 or per_cluster < 1 or dim < 1:
        raise ValueError("n_clusters, per_cluster and dim must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9001]))
    centers = np.zeros((n_clusters, dim))
    for k in range(n_clusters):
        centers[k, k % dim] = separation * (1 + k // dim)
        if k >= dim:
            centers[k, (k + 1) % dim] = 0.5 * separation
    values = np.vstack(
        [
            centers[k] + rng.normal(0.0, spread, size=(per_cluster, dim))
            for k in range(n_clusters)
        ]
    )
    labels = [f"blob{k}" for k in range(n_clusters) for _ in range(per_cluster)]
    return _matrix(values, labels, "blob")


def nested_blobs(
    n_coarse: int = 3,
    n_sub: int = 3,
    per_sub: int = 20,
    dim: int = 4,
    coarse_sep: float = 10.0,
    sub_sep: float = 1.5,
    spread: float = 0.05,
    seed: int = 0,
) -> DataMatrix:
    """Two-scale clusters: far-apart coarse groups of nearby sub-blobs.

    Coarse centers sit ``coarse_sep`` apart; each group holds ``n_sub``
    sub-blobs offset by multiples of ``sub_sep`` on a second axis. The
    scale gap makes hierarchies with a clean depth-2 structure. Labels
    name the sub-blob (``c{g}s{s}``).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9004]))
    blocks = []
    labels = []
    for g in range(n_coarse):
        center = np.zeros(dim)
        center[g % dim] = coarse_sep * (1 + g // dim)
        for s in range(n_sub):
            sub = center.copy()
            sub[(s + 1) % dim] += sub_sep * (s + 1)
            blocks.append(sub + rng.normal(0.0, spread, size=(per_sub, dim)))
            labels.extend([f"c{g}s{s}"] * per_sub)
    values = np.vstack(blocks)
    return _matrix(values, labels, "subblob")


def tiered_blobs(
    seed: int = 0,
    dim: int = 6,
    sep: float = 10.0,
    tight_spread: float = 0.005,
    per_tight: int = 40,
    micro_grid: int = 4,
    micro_spacing: float = 0.7,
    per_micro: int = 5,
) -> DataMatrix:
    """3 tight blobs plus one coarse cluster of micro-blobs.

    The coarse cluster is a ``micro_grid`` x ``micro_grid`` lattice of
    tiny blobs spread over two attributes, so it carries an order of
    magnitude more internal error than the tight blobs while staying far
    from them. Useful when a dataset must expand exactly one unit into a
    child map that then converges cleanly. Labels mark the four coarse
    clusters.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9005]))
    blocks = []
    labels = []
    for k in range(3):
        center = np.zeros(dim)
        center[k] = sep
        blocks.append(center + rng.normal(0.0, tight_spread, size=(per_tight, dim)))
        labels.extend([f"tight{k}"] * per_tight)
    base = np.zeros(dim)
    base[3] = sep
    offsets = (np.arange(micro_grid) - (micro_grid - 1) / 2) * micro_spacing
    for oy in offsets:
        for ox in offsets:
            center = base.copy()
            center[4] += ox
            center[5] += oy
            blocks.append(center + rng.normal(0.0, tight_spread, size=(per_micro, dim)))
            labels.extend(["micro"] * per_micro)
    values = np.vstack(blocks)
    return _matrix(values, labels, "tier")


def planted_attributes(
    n_clusters: int = 4,
    per_cluster: int = 30,
    n_attributes: int = 50,
    n_informative: int = 3,
    shift: float = 5.0,
    noise: float = 0.1,
    seed: int = 0,
) -> tuple[DataMatrix, list[str]]:
    """Noise matrix with a few attributes shifted in one target cluster.

    All attributes are N(0, ``noise``) everywhere except the first
    ``n_informative`` ones, which are moved by ``shift`` for the samples
    of cluster 0 only. Returns the matrix (labels = cluster names) and
    the list of planted attribute names.
    """
    if n_informative > n_attributes:
        raise ValueError("n_informative cannot exceed n_attributes")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9002]))
    n = n_clusters * per_cluster
    values = rng.normal(0.0, noise, size=(n, n_attributes))
    values[:per_cluster, :n_informative] += shift
    labels = [f"c{k}" for k in range(n_clusters) for _ in range(per_cluster)]
    m = _matrix(values, labels, "cluster", "attr{:03d}")
    return m, m.attribute_names[:n_informative]


def block_matrix(
    n_groups: int = 3,
    per_group: int = 20,
    dim: int = 12,
    base: float = 50.0,
    seed: int = 0,
) -> DataMatrix:
    """Count-like matrix with block structure, for pipeline smoke tests.

    Group ``g`` has inflated counts on its own block of ``dim //
    n_groups`` attributes; values are Poisson draws, so the matrix is
    non-negative and integer-valued like raw count data.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9003]))
    block = dim // n_groups
    if block < 1:
        raise ValueError("dim must allow at least one attribute per group")
    lam = np.full((n_groups * per_group, dim), base / 10)
    for g in range(n_groups):
        lam[g * per_group : (g + 1) * per_group, g * block : (g + 1) * block] = base
    values = rng.poisson(lam).astype(np.float64)
    labels = [f"g{g}" for g in range(n_groups) for _ in range(per_group)]
    return _matrix(values, labels, "group", "gene{:02d}")
