"""Growing hierarchical self-organizing map training.

A tree of small SOM grids is fitted top-down. Layer 0 is a single virtual
unit at the data mean whose quantization error sets the global scale. The
root 2x2 grid is trained as a plain SOM, then grown one row or column at a
time until its mean quantization error drops below ``tau1`` times the error
of the unit it refines. Units that still carry at least ``tau2`` times the
layer-0 error (and enough samples) are refined by child 2x2 grids, and the
whole cycle recurses.

A map numbers its units row-major, ``u = row * cols + col``, as the kernel
does; cluster path names use the ``{col}x{row}`` convention, joined with
``-`` from layer 1 down, e.g. ``0x0-2x1``.
"""

from __future__ import annotations

import copy
import json
import logging
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import _kernel
from .data import DataMatrix

log = logging.getLogger(__name__)

INIT_NOISE = 0.01
SIGMA_FLOOR = 0.5
# growth guards: a map never grows past 4 units per routed sample or 64
# insertions, whichever comes first (near-duplicate samples can otherwise
# keep the quantization error above any threshold forever)
MAX_UNITS_PER_SAMPLE = 4
MAX_INSERTIONS = 64


@dataclass(frozen=True)
class GhsomParams:
    """Growth thresholds and SOM training schedule.

    Parameters
    ----------
    tau1 : float in (0, 1]
        Horizontal breadth threshold; a map grows while its MQE is at
        least ``tau1`` times the quantization error it refines.
    tau2 : float in (0, 1]
        Hierarchical depth threshold; a unit spawns a child map while its
        mqe is at least ``tau2`` times the layer-0 error ``mqe0``, as in
        Rauber, Merkl & Dittenbach (IEEE TNN 13(6), 2002).
    lam : int
        Training iterations (epochs over the routed samples) per growth
        check.
    alpha0 : float in (0, 1]
        Initial learning rate, decayed linearly to 0 over a growth cycle.
    sigma0 : float, optional
        Initial neighborhood radius. ``None`` uses half the larger grid
        dimension of the map being trained.
    max_depth : int
        Maximum hierarchy depth (root map is depth 1).
    rng_seed : int
        Seed for every random stream; child maps derive their streams
        from (seed, unit path), never from execution order.
    """

    tau1: float = 0.1
    tau2: float = 0.1
    lam: int = 100
    alpha0: float = 0.5
    sigma0: float | None = None
    max_depth: int = 10
    rng_seed: int = 0

    def validate(self) -> None:
        for name in ("lam", "max_depth", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("tau1", "tau2", "alpha0", "sigma0"):
            value = getattr(self, name)
            if name == "sigma0" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                                 np.floating)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 < self.tau1 <= 1:
            raise ValueError("tau1 must be in (0, 1]")
        if not 0 < self.tau2 <= 1:
            raise ValueError("tau2 must be in (0, 1]")
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if not 0 < self.alpha0 <= 1:
            raise ValueError("alpha0 must be in (0, 1]")
        if self.sigma0 is not None and not 0 < self.sigma0 < math.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0!r}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


class SomMap:
    """One SOM grid in the hierarchy.

    Everything per unit is indexed by the unit's number ``u = row * cols
    + col``, as the kernel numbers it: ``weights[u]``, ``unit_mqe[u]``,
    ``children[u]`` (where unit ``u`` has a child map), entry ``u`` of
    ``members()`` and ``unit_path(u)``; ``units[i]`` is the unit of sample
    ``sample_indices[i]``. ``bmu_rows`` and ``bmu_cols``, each sample's
    row and column, are kept only for the benchmark's tracer. While
    ``_fit_map`` fits the map, ``fit`` holds its kernel context and the
    map's own weights, units and errors are set only when it stops;
    otherwise ``fit`` is None.
    """

    def __init__(self, rows, cols, weights, parent_mqe, depth, path, sample_indices):
        self.rows = rows
        self.cols = cols
        self.weights = weights  # (rows * cols, dim)
        self.parent_mqe = parent_mqe
        self.depth = depth
        self.path = path  # "" for the root, else e.g. "0x0-2x1"
        self.sample_indices = np.asarray(sample_indices, dtype=np.intp)
        self.units = np.zeros(len(self.sample_indices), dtype=np.intp)
        self.unit_mqe = np.zeros(rows * cols)
        self.children: dict[int, SomMap] = {}
        self.fit: _kernel.Fit | None = None

    @property
    def bmu_rows(self) -> np.ndarray:
        """Each routed sample's unit row."""
        return self.units // self.cols

    @property
    def bmu_cols(self) -> np.ndarray:
        """Each routed sample's unit column."""
        return self.units % self.cols

    @property
    def mqe(self) -> float:
        """Map MQE: mean of per-unit errors over non-empty units."""
        occupied = np.zeros(self.rows * self.cols, dtype=bool)
        occupied[self.units] = True
        errors = self.unit_mqe[occupied]
        if len(errors) == 0:
            return 0.0
        return float(errors.sum() / len(errors))

    def members(self) -> list[np.ndarray]:
        """The routed samples of every unit, in row-major unit order, each
        array in the order of ``sample_indices``."""
        return _split(self.sample_indices, self.units, self.rows * self.cols)

    def unit_path(self, u: int) -> str:
        """Unit ``u``'s cluster name, ``{col}x{row}`` after the map's path."""
        row, col = divmod(u, self.cols)
        name = f"{col}x{row}"
        return f"{self.path}-{name}" if self.path else name


@dataclass
class GhsomTree:
    """Trained hierarchy plus the layer-0 statistics it grew from."""

    w0: np.ndarray
    mqe0: float
    root: SomMap
    params: GhsomParams
    sample_ids: list[str]
    attribute_names: list[str]

    def iter_maps(self):
        stack = [self.root]
        while stack:
            som = stack.pop()
            yield som
            stack.extend(som.children[key] for key in sorted(som.children))

    def total_units(self) -> int:
        return sum(som.rows * som.cols for som in self.iter_maps())

    def depth(self) -> int:
        return max(som.depth for som in self.iter_maps())


class LeafPartition:
    """Flat assignment of every sample to exactly one leaf cluster.

    ``LeafPartition(sample_ids, clusters)`` takes each sample's cluster
    name. The partition numbers the clusters in name order and holds each
    sample's number as ``codes``: sample ``i`` is in cluster
    ``cluster_names()[codes[i]]``. ``FlatTree.partition`` gives it the
    codes directly, and ``evaluation.ch_index`` and ``ari`` score from
    them, so the per-sample ``clusters`` list and each cluster's
    ``members`` are built only when a caller reads them. ``sizes()`` lists
    the clusters in name order too.
    """

    def __init__(self, sample_ids: list[str], clusters: list[str]):
        if len(sample_ids) != len(clusters):
            raise ValueError("sample_ids and clusters must be aligned")
        names = sorted(set(clusters))
        number = {c: k for k, c in enumerate(names)}
        self._set(sample_ids, names,
                  np.fromiter(map(number.__getitem__, clusters), np.intp, len(clusters)))
        self._clusters = clusters

    @classmethod
    def _of_codes(cls, sample_ids: list[str], names: list[str],
                  codes: np.ndarray) -> LeafPartition:
        """The partition that puts sample ``i`` in cluster
        ``names[codes[i]]``, for ``names`` sorted and each of them some
        sample's cluster: the grouping is taken as given, not derived
        again from the names."""
        part = cls.__new__(cls)
        part._set(sample_ids, names, codes)
        return part

    def _set(self, sample_ids, names, codes) -> None:
        self.sample_ids = sample_ids
        self._names, self.codes = names, codes
        self._clusters = self._index = None

    @property
    def clusters(self) -> list[str]:
        """Each sample's cluster name, in sample order."""
        if self._clusters is None:
            self._clusters = np.array(self._names, dtype=object)[self.codes].tolist()
        return self._clusters

    def cluster_names(self) -> list[str]:
        return list(self._names)

    def members(self, cluster: str) -> np.ndarray:
        if self._index is None:
            self._index = dict(zip(self._names, _split(np.arange(len(self.codes)), self.codes,
                                                       len(self._names))))
        try:
            return self._index[cluster]
        except KeyError:
            raise KeyError(f"unknown cluster '{cluster}'") from None

    def sizes(self) -> dict[str, int]:
        return dict(zip(self._names, np.bincount(self.codes, minlength=len(self._names))
                        .tolist()))

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sample_ids, self.clusters) == (other.sample_ids, other.clusters)

    __hash__ = None

    def __repr__(self) -> str:
        return f"LeafPartition(sample_ids={self.sample_ids!r}, clusters={self.clusters!r})"


def _split(values: np.ndarray, units: np.ndarray, n_units: int) -> list[np.ndarray]:
    """``values`` grouped by flat unit index ``units`` into ``n_units``
    arrays, each in the order of ``values`` (one stable sort for all)."""
    ends = np.cumsum(np.bincount(units, minlength=n_units)).tolist()
    grouped = values[np.argsort(units, kind="stable")]
    return [grouped[start:end] for start, end in zip([0, *ends], ends)]


def compute_layer0(m: DataMatrix) -> tuple[np.ndarray, float]:
    """Layer-0 statistics: data mean and its mean quantization error.

    The error is the average Euclidean distance from the mean vector to
    every sample.
    """
    w0, mqe0, _ = _layer0(m)
    return w0, mqe0


def _layer0(m: DataMatrix) -> tuple[np.ndarray, float, float]:
    """The data mean, its mean quantization error and the largest
    distance of a sample to it."""
    if m.n_samples < 1:
        raise ValueError("empty matrix")
    w0 = m.values.mean(axis=0)
    # an overflow gives an infinite distance, which _check_scale reports
    with np.errstate(over="ignore"):
        distances = np.linalg.norm(m.values - w0, axis=1)
    return w0, float(distances.mean()), float(distances.max())


def _check_scale(m: DataMatrix, mqe0: float, radius: float) -> None:
    """Reject data at a scale where the fit's squared distances overflow
    or underflow, rather than rescale it, which would change the fitted
    bits of every other input.

    A map compares squared distances of samples to units that may lie
    beyond the samples' hull, so ``(4 * R) ** 2`` must be finite for the
    largest distance ``R`` of a sample to the mean (at 1e200, or 3e153
    in a few dimensions, no insertion finds a neighbour whose distance
    compares). A layer-0 error of 0 while the rows differ means every
    square underflowed (at 1e-170), and the distinct samples would all
    end in one leaf.
    """
    with np.errstate(over="ignore"):
        span = (4 * np.float64(radius)) ** 2
    if not np.isfinite(span):
        raise ValueError(
            f"squared distances overflow: a sample lies {radius:.3g} from the mean, and "
            f"(4 * {radius:.3g}) ** 2 is not a finite float; rescale the data")
    if mqe0 == 0 and (m.values != m.values[0]).any():
        raise ValueError(
            "squared distances underflow: the samples differ, but every squared distance "
            "to their mean is 0.0; rescale the data")


def train_map(
    som: SomMap,
    data: np.ndarray,
    params: GhsomParams,
    epoch_base: int = 0,
) -> SomMap:
    """Run one growth cycle of SOM training on the samples routed here.

    Performs ``lam`` epochs; each epoch presents every routed sample in a
    seeded-shuffle order and applies the sequential update
    ``w += alpha(t) * h(t) * (x - w)`` with a Gaussian neighborhood over
    grid distance. Both the learning rate and the neighborhood radius
    decay linearly over the cycle; the radius is floored at 0.5.
    Assignments and per-unit errors are recomputed afterwards.

    The cycle runs in the map's kernel context (``som.fit``, see
    ``_kernel.Fit``), which ``_init_map`` opened on the fit's constants
    (``_kernel.Run``) and ``params``, in one kernel call: the kernel draws
    every epoch's permutation from the map's stream ``1 + epoch_base``, the
    draws numpy's ``Generator.permutation`` makes, and computes the schedule
    with numpy's float operations in numpy's order, in blocks of steps whose
    table holds one row per distinct squared grid distance and one column
    per step. Its ``exp`` of the table is a port of numpy's AVX-512 ``exp``,
    so the neighbourhood weights are that loop's bits on any CPU. It applies
    the per-sample updates in one pass over the weights per step, with the
    float operations of numpy's ``w + (x - w) * (h * alpha)`` in the same
    order, so the weights match a per-sample numpy loop bit for bit. After
    the last block it assigns every routed sample to its nearest unit and
    computes each unit's mqe, the mean of its samples' distances in routed
    order as ``np.mean`` gives it (0 for an empty unit), the map MQE as
    ``SomMap.mqe`` gives it, and the stop verdict ``_fit_map`` reads. The
    map's own arrays are set when it stops.

    ``_fit_map`` calls this once per cycle, with the ``data`` and
    ``params`` the context holds, so a probe of this function (as
    ``bench/tracing.py`` sets one) sees every cycle and its ``params``.
    """
    som.fit.train(1 + epoch_base)
    return som


def grow_horizontal(som: SomMap) -> SomMap:
    """Insert one row or column between the error unit and its most
    dissimilar neighbor.

    The error unit is the one with the highest mqe (ties to the smallest
    (row, col)). Its most dissimilar 4-neighbor is the one at the largest
    squared weight distance, summed in numpy's pairwise order; ties prefer
    right, left, below, above in that order, so a column insertion before
    a row insertion. A same-row neighbor triggers a column insertion, a
    same-column neighbor a row insertion; new weights are the means of
    the two flanking units. One kernel call does all of it, in place in
    the map's kernel context, after a cycle of ``train_map``.
    """
    som.rows, som.cols = som.fit.grow()
    return som


def _run(data: np.ndarray, params: GhsomParams) -> _kernel.Run:
    """The kernel constants that every map of a fit of ``data`` at
    ``params`` reads: the data, the seed, the training schedule, the
    initial noise and the insertion cap."""
    return _kernel.Run(data, lam=params.lam, alpha0=params.alpha0, sigma0=params.sigma0,
                       sigma_floor=SIGMA_FLOOR, noise=INIT_NOISE, seed=params.rng_seed,
                       max_insertions=MAX_INSERTIONS)


def _init_map(path, parent_mqe, depth, sample_indices, run, params) -> SomMap:
    """Fresh 2x2 map and its kernel context on the fit's constants
    ``run`` (``_run``), which holds its initial weights: the routed-data
    mean plus small seeded noise (stream 0 of the map; training cycles
    use streams 1 + epoch_base) scaled by the per-attribute spread,
    numpy's ``mean`` and ``std`` over the samples. The map grows until
    its MQE is below ``tau1 * parent_mqe`` or it reaches a growth
    guard."""
    som = SomMap(2, 2, None, parent_mqe, depth, path, sample_indices)
    som.fit = _kernel.Fit(run, som.sample_indices, 2, 2, None, path=path,
                          threshold=params.tau1 * parent_mqe,
                          max_units=MAX_UNITS_PER_SAMPLE * len(som.sample_indices))
    return som


def _fit_map(som: SomMap, data: np.ndarray, params: GhsomParams) -> None:
    """Alternate training and row/column insertion until the map MQE
    drops below tau1 times the error it refines.

    ``train_map`` runs each cycle and ``grow_horizontal`` each insertion
    in the kernel context ``_init_map`` opened, and the kernel's verdict
    after a cycle says whether the map converged, reached a growth guard
    (the map's units or insertions) or grows on. When it stops, a child
    map whose MQE exceeds the error of the unit it refines is logged (not
    failed), its weights, errors and units are stored into ``som`` and the
    context is closed.
    """
    fit = som.fit
    try:
        epoch_base = 0
        while True:
            train_map(som, data, params, epoch_base)
            epoch_base += params.lam
            if fit.head.verdict != _kernel.GROW:
                break
            grow_horizontal(som)
        if fit.head.verdict == _kernel.CAPPED:
            log.warning(
                "map %s: growth capped at %dx%d with MQE %.6g >= tau1*parent %.6g",
                som.path or "<root>", som.rows, som.cols, fit.head.mqe,
                params.tau1 * som.parent_mqe,
            )
        # a child map's parent_mqe is the error of the unit it refines
        if som.depth > 1 and fit.head.mqe > som.parent_mqe + 1e-9:
            log.warning("child map %s has MQE %.6g above its unit's mqe %.6g",
                        som.path, fit.head.mqe, som.parent_mqe)
        som.weights, som.unit_mqe, som.units = fit.store()
    finally:
        som.fit = None
        fit.close()


def expand_hierarchy(
    tree: GhsomTree,
    som: SomMap,
    run: _kernel.Run,
    params: GhsomParams,
) -> GhsomTree:
    """Spawn and fit child maps for every unit still above the depth
    threshold, then recurse.

    A unit expands when its mqe is at least ``tau2`` times the layer-0
    error ``tree.mqe0``, it holds at least 4 samples, and the
    depth budget allows. Children are fitted depth-first in row-major
    unit order; their RNG streams are derived from their paths, not from
    that order. ``run`` holds the data and the constants every map of the
    fit reads (``_run``). Each unit's samples are counted from
    ``som.units``.
    """
    if som.depth >= params.max_depth:
        return tree
    mqe = som.unit_mqe
    expand = mqe >= params.tau2 * tree.mqe0
    if not expand.any():
        return tree
    expand &= (mqe > 0) & (np.bincount(som.units, minlength=som.rows * som.cols) >= 4)
    if not expand.any():
        return tree

    members = som.members()
    for u in np.flatnonzero(expand).tolist():
        child = _init_map(som.unit_path(u), float(mqe[u]), som.depth + 1, members[u], run,
                          params)
        som.children[u] = child
        _fit_map(child, run.data, params)
        expand_hierarchy(tree, child, run, params)
    return tree


def run_ghsom(m: DataMatrix, params: GhsomParams, threads: int = 1) -> GhsomTree:
    """Fit the full hierarchy on a data matrix.

    Parameters
    ----------
    m : DataMatrix
        Input samples (at least 4), at a scale whose squared distances
        neither overflow nor underflow (see ``_check_scale``); others
        raise ValueError.
    params : GhsomParams
        Growth thresholds and training schedule.
    threads : int
        Ignored. Every map is fitted on the calling thread: a thread pool
        over sibling subtrees only slowed fits down under the interpreter
        lock. The keyword stays because existing callers, among them the
        benchmark in ``bench/``, still pass it.

    Returns
    -------
    GhsomTree
    """
    params.validate()
    if m.n_samples < 4:
        raise ValueError(f"need at least 4 samples, got {m.n_samples}")
    w0, mqe0, radius = _layer0(m)
    _check_scale(m, mqe0, radius)
    run = _run(m.values, params)
    root = _init_map("", mqe0, 1, np.arange(m.n_samples), run, params)
    tree = GhsomTree(
        w0=w0,
        mqe0=mqe0,
        root=root,
        params=params,
        sample_ids=list(m.sample_ids),
        attribute_names=list(m.attribute_names),
    )
    _fit_map(root, run.data, params)
    expand_hierarchy(tree, root, run, params)
    return tree


class FlatTree:
    """A fitted tree flattened once, to be cut at any ``tau2`` at or above
    its own without copying a map.

    ``maps`` are the tree's maps in ``GhsomTree.iter_maps`` order, each
    after its parent map, and the units are numbered over the whole tree:
    map ``k``'s unit ``u`` is ``start[k] + u``, ``start[-1]`` being the
    number of units. Map ``k > 0`` refines the unit ``hang[k]`` of map
    ``parent[k]``, whose error is ``error[k - 1]``; its threshold at
    ``tau2`` is ``tau2`` times the tree's layer-0 error. ``reach[d, i]``
    is the unit that sample ``i`` reaches in the maps ``d`` levels below
    the root, or ``start[-1]`` where no map of that level routes it: map
    ``k``'s ``units`` offset by ``start[k]``.
    """

    def __init__(self, tree: GhsomTree):
        self.tree = tree
        self.sample_ids = list(tree.sample_ids)
        self.maps = maps = list(tree.iter_maps())
        number = {id(som): k for k, som in enumerate(maps)}
        self.start = np.cumsum([0] + [som.rows * som.cols for som in maps]).tolist()
        self.parent, self.hang = [0] * len(maps), [-1] * len(maps)
        level = [0] * len(maps)
        for k, som in enumerate(maps):
            for u, child in som.children.items():
                c = number[id(child)]
                self.parent[c], self.hang[c] = k, self.start[k] + u
                level[c] = level[k] + 1
        self.error = np.concatenate([som.unit_mqe for som in maps])[self.hang[1:]]
        # every map's routed samples and their units, in one array each
        counts = [len(som.sample_indices) for som in maps]
        self.reach = np.full((max(level) + 1, len(tree.sample_ids)), self.start[-1],
                             dtype=np.intp)
        self.reach[np.repeat(level, counts),
                   np.concatenate([som.sample_indices for som in maps])] = (
            np.concatenate([som.units for som in maps]) + np.repeat(self.start[:-1], counts))

    def survivors(self, tau2: float) -> list[bool]:
        """Which maps the fit at ``tau2`` keeps, by map number: the root,
        and each child map whose parent map survives and whose unit's mqe
        is at or above ``tau2`` times the layer-0 error, compared as
        ``expand_hierarchy`` compares it."""
        above = (self.error >= tau2 * self.tree.mqe0).tolist()
        keep = [True]
        for k in range(1, len(self.maps)):
            keep.append(keep[self.parent[k]] and above[k - 1])
        return keep

    def partition(self, keep: list[bool] | None = None) -> LeafPartition:
        """The leaf partition of the tree of the maps ``keep`` names (of
        every map by default): each sample at the first unit on its path
        that has no kept child map. Only the units samples end at are
        named, through ``SomMap.unit_path``, and the partition gets its
        leaves as codes numbered in name order; it builds no string per
        sample."""
        if keep is None:
            keep = [True] * len(self.maps)
        # a sample at a unit with a kept child map steps down into it;
        # one that a map does not route (number start[-1]) is at no leaf
        inner = np.zeros(self.start[-1] + 1, dtype=bool)
        inner[[h for h, kept in zip(self.hang[1:], keep[1:]) if kept]] = True
        leaf = self.reach[0].copy()
        for below in self.reach[1:]:
            down = inner[leaf]
            leaf[down] = below[down]
        missing = np.flatnonzero(leaf == self.start[-1])
        if missing.size:
            missing = [self.sample_ids[i] for i in missing[:5]]
            raise RuntimeError(f"samples not reachable at any leaf: {missing}")
        ends, codes = np.unique(leaf, return_inverse=True)
        owner = np.searchsorted(self.start, ends, side="right") - 1
        names = [self.maps[k].unit_path(u - self.start[k])
                 for k, u in zip(owner.tolist(), ends.tolist())]
        order = sorted(range(len(names)), key=names.__getitem__)
        place = np.empty(len(order), dtype=np.intp)
        place[order] = np.arange(len(order))
        return LeafPartition._of_codes(self.sample_ids, [names[k] for k in order],
                                       place[codes])


def prune(tree: GhsomTree, tau2: float) -> GhsomTree:
    """The tree ``run_ghsom`` fits at a larger ``tau2``, from one fitted
    at a smaller one with the same other parameters.

    ``tau2`` only decides which units get a child map, and a child map's
    fit reads neither ``tau2`` nor its siblings: its random streams come
    from (seed, path). So the larger-``tau2`` tree is this one without
    the child maps that ``FlatTree.survivors`` drops at the new
    threshold. The result shares the weight, assignment and error arrays
    of ``tree``.
    """
    params = replace(tree.params, tau2=tau2)
    params.validate()
    if tau2 < tree.params.tau2:
        raise ValueError(
            f"prune can only raise tau2: {tau2} < fitted tau2 {tree.params.tau2}"
        )
    flat = FlatTree(tree)
    kept = {id(som): copy.copy(som) for som, keep in zip(flat.maps, flat.survivors(tau2))
            if keep}
    for som in kept.values():
        som.children = {u: kept[id(child)] for u, child in som.children.items()
                        if id(child) in kept}
    return replace(tree, root=kept[id(tree.root)], params=params)


def find_cluster(tree: GhsomTree, path: str) -> np.ndarray:
    """Global sample indices of a named cluster, leaf or internal.

    An internal cluster (a unit that grew a child map) owns every sample
    routed to its subtree, i.e. the union of its descendant leaves. The
    path is followed one ``{col}x{row}`` name at a time through the
    maps' units, each prefix exactly as ``SomMap.unit_path`` writes it.
    """
    som = tree.root
    names = path.split("-")
    for depth in range(1, len(names) + 1):
        prefix = "-".join(names[:depth])
        u = next((u for u in range(som.rows * som.cols) if som.unit_path(u) == prefix), None)
        if u is not None and depth == len(names):
            return som.members()[u]
        som = som.children.get(u)
        if som is None:
            break
    valid = [som.unit_path(u) for som in tree.iter_maps() for u in range(som.rows * som.cols)]
    raise KeyError(f"unknown cluster '{path}'; valid clusters: {', '.join(valid)}")


def leaf_partition(tree: GhsomTree) -> LeafPartition:
    """Flatten the tree: every sample labeled with its leaf unit's path.

    A sample's leaf is the first unit on its path from the root that has
    no child map (``FlatTree.partition`` with every map kept). Only the
    units samples end at are named.
    """
    return FlatTree(tree).partition()


# ---------------------------------------------------------------------------
# serialization

def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_stable(obj) -> str:
    """Serialize to compact JSON with insertion-ordered keys.

    Floats are written as Python's shortest repr, which reparses to the
    same float64; NaN and infinities as ``NaN`` / ``Infinity``. numpy
    arrays and scalars become lists and plain numbers.
    """
    return json.dumps(obj, separators=(",", ":"), default=_json_default)


def _map_to_dict(tree: GhsomTree, som: SomMap, rows: list[str]) -> dict:
    """The map as a dict for ``dumps_stable``. Where the kernel writes the
    map's weights, each unit's weight is ``""`` and its row's text (numbers
    after a leading ",") goes to ``rows``, in the order of the document."""
    text = None
    if som.weights.dtype == np.float64 and np.isfinite(som.weights).all():
        text = _kernel.format_rows(som.weights).split("\n")
    units = []
    for u, assigned in enumerate(som.members()):
        row, col = divmod(u, som.cols)
        child = som.children.get(u)
        if text is not None:
            rows.append(text[u])
        units.append(
            {
                "row": row,
                "col": col,
                "weight": som.weights[u] if text is None else "",
                "mqe": float(som.unit_mqe[u]),
                "assigned": [tree.sample_ids[i] for i in assigned],
                "child": _map_to_dict(tree, child, rows) if child is not None else None,
            }
        )
    return {
        "rows": som.rows,
        "cols": som.cols,
        "depth": som.depth,
        "parent_mqe": som.parent_mqe,
        "units": units,
    }


def tree_to_json(tree: GhsomTree) -> str:
    """The tree as a ``ghsom-tree/1`` document, whose ``params`` end with
    ``"depth_reference": "global"``: ``tau2`` multiplies the layer-0 error.

    The text is ``dumps_stable``'s, but for how the weights, the bulk of
    the document, are written: the kernel's ``format_rows`` writes each
    map's in one call, as the ``repr()`` that ``json`` writes too, and
    each row's text replaces its unit's ``"weight":""``. ``json`` escapes
    every '"' within a string, so that text can only be a key named
    "weight" and an empty string, and no key but a unit's has that name.
    ``json`` writes the structure, the strings and every other number.
    A map whose weights are not float64, or hold a NaN or an infinity,
    keeps ``json``'s spelling of them (``NaN``, ``Infinity``): only a
    loaded document or a hand-built map can hold such weights, since a
    fit rejects data at a scale that would give them.
    """
    rows: list[str] = []
    root = _map_to_dict(tree, tree.root, rows)
    head, *tails = dumps_stable({
        "format": "ghsom-tree/1",
        "params": {**asdict(tree.params), "depth_reference": "global"},
        "sample_ids": tree.sample_ids,
        "attribute_names": tree.attribute_names,
        "w0": tree.w0,
        "mqe0": tree.mqe0,
        "root": root,
    }).split('"weight":""')
    return head + "".join([f'"weight":[{row[1:]}]{tail}' for row, tail in zip(rows, tails)])


def _map_from_dict(d: dict, path: str, depth: int, id_index: dict[str, int],
                   dim: int) -> SomMap:
    rows, cols = d["rows"], d["cols"]
    name = path or "<root>"
    units = sorted(d["units"], key=lambda u: (u["row"], u["col"]))
    cells = [(u["row"], u["col"]) for u in units]
    if cells != [divmod(k, cols) for k in range(rows * cols)]:
        raise ValueError(f"map {name}: units do not tile its {rows}x{cols} grid")
    for u in units:
        w = u["weight"]
        if not (type(w) is list and len(w) == dim and set(map(type, w)) <= {int, float}):
            raise ValueError(f"map {name}: unit ({u['row']}, {u['col']}) weight is not "
                             f"a list of {dim} numbers")
    weights = np.array([u["weight"] for u in units], dtype=np.float64)
    try:
        members = [id_index[sid] for u in units for sid in u["assigned"]]
    except KeyError as exc:
        raise ValueError(f"map {name}: unknown sample id {exc.args[0]!r}") from None
    som = SomMap(rows, cols, weights, d["parent_mqe"], depth, path, members)
    som.units = np.repeat(np.arange(rows * cols), [len(u["assigned"]) for u in units])
    som.unit_mqe = np.array([u["mqe"] for u in units], dtype=np.float64)
    for u, (unit, assigned) in enumerate(zip(units, som.members())):
        if unit["child"] is not None:
            child = _map_from_dict(unit["child"], som.unit_path(u), depth + 1, id_index, dim)
            # a loaded map lists its samples by unit, so compare as sets
            if not np.array_equal(np.sort(child.sample_indices), np.sort(assigned)):
                raise ValueError(f"map {child.path}: routes other samples than its unit")
            som.children[u] = child
    return som


# a tree document's params keys: GhsomParams' fields, then "depth_reference"
_PARAM_KEYS = [f.name for f in fields(GhsomParams)] + ["depth_reference"]


def tree_from_json(text: str) -> GhsomTree:
    """Load a tree written by ``tree_to_json``.

    ``params`` must hold exactly the keys ``tree_to_json`` writes, with
    ``depth_reference`` ``"global"``, and pass ``GhsomParams.validate``.
    Every map's units must tile its grid: one unit for each ``(row, col)``
    with ``0 <= row < rows`` and ``0 <= col < cols``, in any order; each
    unit's weight must be a list of as many numbers as there are
    attribute names, and each unit may assign only samples the tree
    lists; the root must route every sample exactly once, and each child
    map exactly the samples of its unit. Otherwise a ``ValueError`` names
    the field, key or map (and a unit by its ``(row, col)``).
    """
    d = json.loads(text)
    if d.get("format") != "ghsom-tree/1":
        raise ValueError("not a ghsom tree document")
    params = d["params"]
    if not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {type(params).__name__}")
    problems = ([f"missing key {key!r}" for key in _PARAM_KEYS if key not in params]
                + [f"unknown key {key!r}" for key in params if key not in _PARAM_KEYS])
    if not problems and params["depth_reference"] != "global":
        problems = [f"depth_reference must be 'global', got {params['depth_reference']!r}"]
    if problems:
        raise ValueError("params: " + ", ".join(problems))
    params = GhsomParams(**{key: params[key] for key in _PARAM_KEYS[:-1]})
    params.validate()
    sample_ids = list(d["sample_ids"])
    id_index = {sid: i for i, sid in enumerate(sample_ids)}
    root = _map_from_dict(d["root"], "", 1, id_index, len(d["attribute_names"]))
    if not np.array_equal(np.sort(root.sample_indices), np.arange(len(sample_ids))):
        raise ValueError("map <root>: does not route every sample exactly once")
    return GhsomTree(
        w0=np.asarray(d["w0"], dtype=np.float64),
        mqe0=float(d["mqe0"]),
        root=root,
        params=params,
        sample_ids=sample_ids,
        attribute_names=list(d["attribute_names"]),
    )
