"""Reference computations the benchmark checks the program against.

Written from the definitions, apart from the program: nothing here
imports ``ghsomkit``. Each function favours an obvious formulation over
speed; the inputs the benchmark feeds them are small enough.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np


def nearest_unit(x: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force nearest unit of every sample.

    Returns the index of the nearest row of ``weights`` for each row of
    ``x`` (ties go to the lowest index) and the full (samples, units)
    matrix of Euclidean distances.
    """
    dist = np.empty((len(x), len(weights)))
    for u, w in enumerate(weights):
        dist[:, u] = np.sqrt(((x - w) ** 2).sum(axis=1))
    return dist.argmin(axis=1), dist


def unit_mqe(x: np.ndarray, weight: np.ndarray) -> float:
    """Mean Euclidean distance from a unit's samples to its weight; 0 if empty."""
    if len(x) == 0:
        return 0.0
    return float(np.sqrt(((x - weight) ** 2).sum(axis=1)).mean())


def ari(pred, truth) -> float:
    """Adjusted Rand Index from a contingency table, in exact arithmetic."""
    if len(pred) != len(truth):
        raise ValueError("label sequences differ in length")
    table = Counter(zip(pred, truth))
    rows = Counter(pred)
    cols = Counter(truth)
    index = sum(math.comb(c, 2) for c in table.values())
    sum_rows = sum(math.comb(c, 2) for c in rows.values())
    sum_cols = sum(math.comb(c, 2) for c in cols.values())
    expected = Fraction(sum_rows * sum_cols, math.comb(len(pred), 2))
    maximum = Fraction(sum_rows + sum_cols, 2)
    if maximum == expected:
        return 0.0
    return float((index - expected) / (maximum - expected))


def ch(values: np.ndarray, clusters) -> float:
    """Calinski-Harabasz index: between- over within-cluster dispersion,
    each divided by its degrees of freedom."""
    clusters = np.asarray(clusters)
    names = sorted(set(clusters.tolist()))
    n, k = len(values), len(names)
    center = values.mean(axis=0)
    between = 0.0
    within = 0.0
    for c in names:
        rows = values[clusters == c]
        centroid = rows.mean(axis=0)
        between += len(rows) * float(((centroid - center) ** 2).sum())
        within += float(((rows - centroid) ** 2).sum())
    if within == 0.0:
        return math.inf if between > 0.0 else 0.0
    return (between / (k - 1)) / (within / (n - k))


def sai(values: np.ndarray, clusters, target: str):
    """Per-attribute (sigma_i, sigma_b, diff) of one cluster.

    sigma_i is the population spread of the attribute inside ``target``;
    sigma_b is the root mean square distance from the target's mean to
    every other cluster's mean; diff = sigma_b - sigma_i.
    """
    clusters = np.asarray(clusters)
    names = sorted(set(clusters.tolist()))
    inside = values[clusters == target]
    sigma_i = inside.std(axis=0)
    mean_t = inside.mean(axis=0)
    acc = np.zeros(values.shape[1])
    for c in names:
        if c != target:
            acc += (values[clusters == c].mean(axis=0) - mean_t) ** 2
    sigma_b = np.sqrt(acc / (len(names) - 1))
    return sigma_i, sigma_b, sigma_b - sigma_i


def sai_order(diff: np.ndarray, names: list[str]) -> list[str]:
    """Attribute names by descending diff, ties by name."""
    return [names[j] for j in sorted(range(len(names)), key=lambda j: (-diff[j], names[j]))]


def top_k_variable(values: np.ndarray, k: int) -> list[int]:
    """Columns of the k largest population variances, in column order.

    Ties go to the lower column index.
    """
    centred = values - values.mean(axis=0)
    var = (centred * centred).mean(axis=0)
    ranked = sorted(range(values.shape[1]), key=lambda j: (-var[j], j))
    return sorted(ranked[:k])


def _rect(node) -> tuple[float, float, float, float]:
    return node["x"], node["y"], node["width"], node["height"]


def _overlap(a, b) -> float:
    w = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    h = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    return max(w, 0.0) * max(h, 0.0)


def treemap_errors(nodes: list[dict], plot: dict, rel: float = 1e-9) -> list[str]:
    """Check that every rectangle group tiles its parent in proportion
    to sample counts.

    ``nodes`` carry ``path``, ``count`` and ``x``/``y``/``width``/
    ``height``; a node's children are the nodes one path segment below
    it, and the top-level nodes tile ``plot``. Within each group the
    rectangles must stay inside the parent, not overlap, cover its
    area, and each take the share of that area its count has of the
    group's total count.
    """
    errors = []
    by_parent: dict[str, list[dict]] = {}
    for node in nodes:
        parent = node["path"].rpartition("-")[0]
        by_parent.setdefault(parent, []).append(node)
    paths = {n["path"]: n for n in nodes}
    for parent, group in sorted(by_parent.items()):
        if parent:
            if parent not in paths:
                errors.append(f"treemap: {group[0]['path']} has no parent rectangle")
                continue
            outer = _rect(paths[parent])
            if sum(n["count"] for n in group) != paths[parent]["count"]:
                errors.append(f"treemap: children of {parent} do not add up to its count")
        else:
            outer = (plot["x"], plot["y"], plot["width"], plot["height"])
        area = outer[2] * outer[3]
        tol = rel * area
        total = sum(n["count"] for n in group)
        for i, node in enumerate(group):
            r = _rect(node)
            if abs(_overlap(r, outer) - r[2] * r[3]) > tol:
                errors.append(f"treemap: {node['path']} leaves its parent rectangle")
            if abs(r[2] * r[3] - area * node["count"] / total) > tol:
                errors.append(f"treemap: {node['path']} area is not proportional to its count")
            for other in group[i + 1:]:
                if _overlap(r, _rect(other)) > tol:
                    errors.append(f"treemap: {node['path']} overlaps {other['path']}")
        if abs(sum(n["width"] * n["height"] for n in group) - area) > tol:
            errors.append(f"treemap: children of {parent or 'the plot'} do not cover it")
    return errors


def bubble_errors(nodes: list[dict], rel: float = 1e-9) -> list[str]:
    """Check that bubble radii are proportional to the square root of counts."""
    if not nodes:
        return ["distribution map: no bubbles"]
    ratios = [n["radius"] / math.sqrt(n["count"]) for n in nodes]
    ref = ratios[0]
    return [
        f"distribution map: radius of {n['path']} is not proportional to sqrt(count)"
        for n, r in zip(nodes, ratios)
        if abs(r - ref) > rel * ref
    ]
