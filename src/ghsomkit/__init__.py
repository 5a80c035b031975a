"""Hierarchical self-organizing-map clustering with attribute ranking and SVG maps."""

from .data import DataMatrix, PreprocessSpec, load_csv, preprocess, save_csv, transpose
from .evaluation import SweepGrid, adjusted_rand_index, ari, ch_index, sweep
from .ghsom import (
    GhsomParams,
    GhsomTree,
    LeafPartition,
    SomMap,
    compute_layer0,
    find_cluster,
    leaf_partition,
    prune,
    run_ghsom,
    tree_from_json,
    tree_to_json,
)
from .sai import (
    AttributeScore,
    identify_significant,
    save_scores_csv,
    sigma_between,
    sigma_within,
    significance_difference_feature,
)
from .synthetic import (
    block_matrix,
    gaussian_blobs,
    nested_blobs,
    planted_attributes,
    tiered_blobs,
)
from .viz import (
    FeatureSpec,
    LeafCoordinate,
    leaf_coordinates,
    render_distribution_map,
    render_feature_map,
    squarify,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeScore",
    "DataMatrix",
    "FeatureSpec",
    "GhsomParams",
    "GhsomTree",
    "LeafCoordinate",
    "LeafPartition",
    "PreprocessSpec",
    "SomMap",
    "SweepGrid",
    "adjusted_rand_index",
    "ari",
    "block_matrix",
    "ch_index",
    "compute_layer0",
    "find_cluster",
    "gaussian_blobs",
    "identify_significant",
    "leaf_coordinates",
    "leaf_partition",
    "load_csv",
    "nested_blobs",
    "planted_attributes",
    "preprocess",
    "prune",
    "render_distribution_map",
    "render_feature_map",
    "run_ghsom",
    "save_csv",
    "save_scores_csv",
    "sigma_between",
    "sigma_within",
    "significance_difference_feature",
    "squarify",
    "sweep",
    "tiered_blobs",
    "transpose",
    "tree_from_json",
    "tree_to_json",
    "__version__",
]
