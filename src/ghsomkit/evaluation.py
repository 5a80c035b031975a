"""Cluster validity scores and threshold-grid sweeps.

Internal quality uses the Calinski-Harabasz ratio of between- to
within-cluster dispersion; external quality (when reference labels
exist) uses the Adjusted Rand Index. ``sweep`` scores every (tau1, tau2)
cell with both plus tree shape, which is how the thresholds get picked in
practice. It fits one tree per tau1, because tau2 only decides which
units get a child map, and scores that row's tau2 cells from one
flattening of the tree (``ghsom.FlatTree``): each cell keeps the maps
``ghsom.prune`` would keep, without a pruned copy of the tree.

Both scores work from a partition's integer cluster codes
(``LeafPartition.codes``, numbered in cluster-name order) rather than
from its per-sample cluster names: ``ch_index`` groups the rows by one
stable argsort of the codes, and the ARI counts its contingency table
from the codes. A sweep cell's partition gets its codes straight from
the flattened tree and builds no string per sample. Each score is the
same float as the name-based computation gives, bit for bit.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import asdict, dataclass, replace
from itertools import compress
from typing import Sequence

import numpy as np

from . import _kernel
from .data import DataMatrix
from .ghsom import FlatTree, GhsomParams, LeafPartition, dumps_stable, run_ghsom

log = logging.getLogger(__name__)


def ch_index(partition: LeafPartition, m: DataMatrix) -> float:
    """Calinski-Harabasz index of a flat partition.

    CH = [sum_k n_k ||c_k - c||^2 / (K-1)] / [sum_k sum_i ||d_i - c_k||^2 / (N-K)]

    with c_k the cluster centroids and c the global centroid. Zero
    within-cluster scatter with separated centroids returns +inf; zero
    scatter on both sides returns 0.0. K < 2 or N <= K is an error.

    The clusters are taken in name order, each with its rows in sample
    order. ``c`` is ``m.values.mean(axis=0)``, and one kernel call
    (``_kernel.ch_sums``) computes the two sums as these numpy
    expressions give them, bit for bit::

        c_k = rows_k.sum(axis=0) / n_k
        between_k = n_k * ((c_k - c) ** 2).sum(axis=1)
        within_k = ((rows_k - c_k) ** 2).sum()

    each sum summed in cluster order from its first term. The rows are
    grouped by one stable argsort of the partition's integer cluster
    codes, which number the clusters in name order, so no cluster's
    members are looked up by name.
    """
    if partition.sample_ids != m.sample_ids:
        raise ValueError("partition and data matrix list different sample ids")
    k = len(partition.cluster_names())
    n = m.n_samples
    if k < 2:
        raise ValueError(f"ch_index needs at least 2 clusters, got {k}")
    if n <= k:
        raise ValueError(f"ch_index needs more samples than clusters (n={n}, K={k})")
    codes = partition.codes
    # rows grouped by cluster in name order, each cluster's rows in sample
    # order; the gather gives C order whatever the order of the values
    grouped = m.values[np.argsort(codes, kind="stable")]
    center = m.values.mean(axis=0)
    bgss, wgss = _kernel.ch_sums(grouped, np.bincount(codes, minlength=k), center)
    if wgss == 0.0:
        return float("inf") if bgss > 0.0 else 0.0
    return (bgss / (k - 1)) / (wgss / (n - k))


def adjusted_rand_index(pred: Sequence, truth: Sequence) -> float:
    """ARI between two label sequences, from the contingency table.

    With n_ij the contingency counts, a_i / b_j the marginals and
    pairs(x) = C(x, 2):

        ARI = (sum_ij pairs(n_ij) - E) / (max - E)
        E   = sum_i pairs(a_i) * sum_j pairs(b_j) / pairs(n)
        max = (sum_i pairs(a_i) + sum_j pairs(b_j)) / 2

    Labels are grouped by equality, as dict keys are (so ``1``, ``1.0``
    and ``True`` are one label), and numbered; the table is counted from
    those integer codes by numpy, and the three pair sums are exact
    Python ints, so the result is the same float whatever the labels'
    types. A zero denominator (both sides degenerate, e.g. one big
    cluster vs. all singletons) yields 0.0 with a warning.
    """
    if len(pred) != len(truth):
        raise ValueError(
            f"label sequences differ in length: {len(pred)} vs {len(truth)}"
        )
    return _ari_of_codes(_codes(pred), _codes(truth))


def _codes(labels: Sequence) -> np.ndarray:
    """Each label's number, the labels numbered by first appearance and
    grouped as dict keys are."""
    number = {label: k for k, label in enumerate(dict.fromkeys(labels))}
    return np.fromiter(map(number.__getitem__, labels), np.intp, len(labels))


def _pairs(counts: np.ndarray) -> int:
    """sum of C(c, 2) over ``counts``, as an exact int."""
    return int((counts * (counts - 1)).sum()) // 2


def _ari_of_codes(a: np.ndarray, b: np.ndarray) -> float:
    """``adjusted_rand_index`` of two equally long arrays of non-negative
    integer codes. The contingency table is the counts of each distinct
    pair ``(a_i, b_i)``."""
    n = len(a)
    if n < 2:
        raise ValueError("ARI needs at least 2 samples")
    joint = np.unique(a * (int(b.max()) + 1) + b, return_counts=True)[1]
    sum_ij, sum_a, sum_b = _pairs(joint), _pairs(np.bincount(a)), _pairs(np.bincount(b))
    expected = sum_a * sum_b / (n * (n - 1) // 2)
    maximum = (sum_a + sum_b) / 2
    if maximum == expected:
        log.warning("ARI denominator is 0 (degenerate marginals); returning 0.0")
        return 0.0
    return (sum_ij - expected) / (maximum - expected)


def ari(partition: LeafPartition, labels: Sequence) -> float:
    """ARI of a leaf partition against reference labels, from the
    partition's integer cluster codes (see ``adjusted_rand_index``)."""
    if len(labels) != partition.n_samples:
        raise ValueError(
            f"labels length {len(labels)} != {partition.n_samples} samples"
        )
    return _ari_of_codes(partition.codes, _codes(labels))


@dataclass
class SweepCell:
    tau1: float
    tau2: float
    ch: float | None = None
    ari: float | None = None
    leaf_count: int | None = None
    depth: int | None = None
    total_units: int | None = None
    error: str | None = None


@dataclass
class SweepGrid:
    """Full Cartesian product of threshold values with per-cell metrics."""

    tau1_values: list[float]
    tau2_values: list[float]
    cells: dict[tuple[float, float], SweepCell]

    def cell(self, tau1: float, tau2: float) -> SweepCell:
        return self.cells[(tau1, tau2)]

    def best_by(self, metric: str) -> SweepCell | None:
        """Cell with the highest finite value of ``metric`` (NaN/err skipped)."""
        best = None
        for t1 in self.tau1_values:
            for t2 in self.tau2_values:
                cell = self.cells[(t1, t2)]
                v = getattr(cell, metric)
                if v is None or (isinstance(v, float) and np.isnan(v)):
                    continue
                if best is None or v > getattr(best, metric):
                    best = cell
        return best


def _fail(cell: SweepCell, exc: Exception) -> None:
    log.warning("sweep cell (tau1=%g, tau2=%g) failed: %s", cell.tau1, cell.tau2, exc)
    cell.error = str(exc)


def _score_cell(
    cell: SweepCell,
    flat: FlatTree,
    m: DataMatrix,
    labels: Sequence | None,
) -> None:
    try:
        keep = flat.survivors(cell.tau2)
        part = flat.partition(keep)
        kept = list(compress(flat.maps, keep))
        cell.leaf_count = len(part.cluster_names())
        cell.depth = max(som.depth for som in kept)
        cell.total_units = sum(som.rows * som.cols for som in kept)
        try:
            cell.ch = ch_index(part, m)
        except ValueError:
            cell.ch = float("nan")  # single-leaf partitions have no CH
        if labels is not None:
            cell.ari = ari(part, labels)
    except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
        _fail(cell, exc)


def sweep(
    m: DataMatrix,
    params_base: GhsomParams,
    tau1_values: Sequence[float],
    tau2_values: Sequence[float],
    labels: Sequence | None = None,
    threads: int = 1,
) -> SweepGrid:
    """Score every (tau1, tau2) pair, fitting once per tau1.

    All cells share ``params_base`` (including the seed), so each cell
    holds what a direct ``run_ghsom`` at its thresholds would give. Each
    tau1 row is fitted once, at its smallest valid tau2, and flattened
    once (``ghsom.FlatTree``). Each cell of the row is scored from that
    flattening: the maps a fit at the cell's tau2 keeps, by the rule
    ``ghsom.prune`` applies, give its leaves, depth and units, and no
    pruned tree is built. ``labels``, when given, must hold one label per
    sample; otherwise, or with an empty axis, ``sweep`` raises ValueError
    before it fits anything. A cell with invalid parameters records its
    validation error; a row whose fit or flattening raises records that
    error on each of its valid cells; a cell whose scoring raises records
    its own error. The sweep continues past each of these. ``threads`` is
    ignored: a thread pool over cells only slowed sweeps down under the
    interpreter lock. The keyword stays because existing callers, among
    them the benchmark in ``bench/``, still pass it.
    """
    if not tau1_values or not tau2_values:
        raise ValueError("tau1_values and tau2_values must be non-empty")
    if labels is not None and len(labels) != m.n_samples:
        raise ValueError(f"labels length {len(labels)} != {m.n_samples} samples")
    t1s = sorted({float(v) for v in tau1_values}, reverse=True)
    t2s = sorted({float(v) for v in tau2_values}, reverse=True)
    cells = {}
    for t1 in t1s:
        row = []
        for t2 in t2s:
            cell = cells[(t1, t2)] = SweepCell(tau1=t1, tau2=t2)
            try:
                replace(params_base, tau1=t1, tau2=t2).validate()
            except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
                _fail(cell, exc)
            else:
                row.append(cell)
        if not row:
            continue
        try:
            flat = FlatTree(run_ghsom(m, replace(params_base, tau1=t1, tau2=row[-1].tau2)))
        except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
            for cell in row:
                _fail(cell, exc)
            continue
        for cell in row:
            _score_cell(cell, flat, m, labels)
    return SweepGrid(tau1_values=t1s, tau2_values=t2s, cells=cells)


def sweep_to_csv(grid: SweepGrid, path) -> None:
    """Cell table: tau1, tau2, ch, ari, leaf_count, depth, total_units, error."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["tau1", "tau2", "ch", "ari", "leaf_count", "depth", "total_units", "error"]
        )
        for t1 in grid.tau1_values:
            for t2 in grid.tau2_values:
                c = grid.cells[(t1, t2)]
                writer.writerow(
                    [
                        repr(c.tau1),
                        repr(c.tau2),
                        "" if c.ch is None else repr(c.ch),
                        "" if c.ari is None else repr(c.ari),
                        "" if c.leaf_count is None else c.leaf_count,
                        "" if c.depth is None else c.depth,
                        "" if c.total_units is None else c.total_units,
                        c.error or "",
                    ]
                )


def sweep_summary(grid: SweepGrid) -> dict:
    """Best cell per metric, JSON-ready."""

    def cell_dict(c: SweepCell | None):
        if c is None:
            return None
        d = asdict(c)
        del d["error"]
        return d

    return {
        "tau1_values": grid.tau1_values,
        "tau2_values": grid.tau2_values,
        "n_cells": len(grid.cells),
        "n_failed": sum(1 for c in grid.cells.values() if c.error),
        "best_by_ch": cell_dict(grid.best_by("ch")),
        "best_by_ari": cell_dict(grid.best_by("ari")),
    }


def save_sweep_summary(grid: SweepGrid, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_stable(sweep_summary(grid)))
        fh.write("\n")
