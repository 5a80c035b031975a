"""Growing hierarchical self-organizing map training.

A tree of small SOM grids is fitted top-down. Layer 0 is a single virtual
unit at the data mean whose quantization error sets the global scale. The
root 2x2 grid is trained as a plain SOM, then grown one row or column at a
time until its mean quantization error drops below ``tau1`` times the error
of the unit it refines. Units that still carry at least ``tau2`` times the
layer-0 error (and enough samples) are refined by child 2x2 grids, and the
whole cycle recurses.

Grid positions are written ``(row, col)`` internally; cluster path names
use the ``{col}x{row}`` convention, joined with ``-`` from layer 1 down,
e.g. ``0x0-2x1``.
"""

from __future__ import annotations

import copy
import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace

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
# training steps per kernel call are sized so that a call's table of
# neighbourhood weights holds about this many floats
TABLE_FLOATS = 1 << 16


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
        mqe is at least ``tau2`` times the reference error.
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
    depth_reference : {"global", "parent"}
        What ``tau2`` multiplies: the layer-0 error (default) or the
        refined unit's own error.
    """

    tau1: float = 0.1
    tau2: float = 0.1
    lam: int = 100
    alpha0: float = 0.5
    sigma0: float | None = None
    max_depth: int = 10
    rng_seed: int = 0
    depth_reference: str = "global"

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
        if self.depth_reference not in ("global", "parent"):
            raise ValueError("depth_reference must be 'global' or 'parent'")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


class SomMap:
    """One SOM grid in the hierarchy.

    Holds the weight grid, the samples routed to it, their unit
    assignments, per-unit quantization errors and any child maps keyed
    by ``(row, col)``. The unit at ``(row, col)`` is entry
    ``row * cols + col`` of ``members()``, and its cluster name is
    ``unit_path(row, col)``. While ``_fit_map`` fits the map, ``fit``
    holds its kernel context and the map's own weights, assignments and
    errors are set only when it stops; otherwise ``fit`` is None.
    """

    def __init__(self, rows, cols, weights, parent_mqe, depth, path, sample_indices):
        self.rows = rows
        self.cols = cols
        self.weights = weights  # (rows, cols, dim)
        self.parent_mqe = parent_mqe
        self.depth = depth
        self.path = path  # "" for the root, else e.g. "0x0-2x1"
        self.sample_indices = np.asarray(sample_indices, dtype=np.intp)
        self.bmu_rows = np.zeros(len(self.sample_indices), dtype=np.intp)
        self.bmu_cols = np.zeros(len(self.sample_indices), dtype=np.intp)
        self.unit_mqe = np.zeros((rows, cols))
        self.children: dict[tuple[int, int], SomMap] = {}
        self.fit: _kernel.Fit | None = None

    @property
    def mqe(self) -> float:
        """Map MQE: mean of per-unit errors over non-empty units."""
        occupied = np.zeros((self.rows, self.cols), dtype=bool)
        occupied[self.bmu_rows, self.bmu_cols] = True
        errors = self.unit_mqe[occupied]
        if len(errors) == 0:
            return 0.0
        return float(errors.sum() / len(errors))

    def members(self) -> list[np.ndarray]:
        """The routed samples of every unit, in row-major unit order, each
        array in the order of ``sample_indices``."""
        return _split(self.sample_indices, self.bmu_rows * self.cols + self.bmu_cols,
                      self.rows * self.cols)

    def unit_path(self, row: int, col: int) -> str:
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


@dataclass
class LeafPartition:
    """Flat assignment of every sample to exactly one leaf cluster."""

    sample_ids: list[str]
    clusters: list[str]
    _index: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.sample_ids) != len(self.clusters):
            raise ValueError("sample_ids and clusters must be aligned")
        # clusters numbered in order of first appearance through a dict:
        # sorting the names with np.unique costs more than the grouping
        codes = {c: k for k, c in enumerate(dict.fromkeys(self.clusters))}
        n = len(self.clusters)
        inverse = np.fromiter(map(codes.__getitem__, self.clusters), np.intp, n)
        self._index = dict(zip(codes, _split(np.arange(n), inverse, len(codes))))

    def cluster_names(self) -> list[str]:
        return sorted(self._index)

    def members(self, cluster: str) -> np.ndarray:
        try:
            return self._index[cluster]
        except KeyError:
            raise KeyError(f"unknown cluster '{cluster}'") from None

    def sizes(self) -> dict[str, int]:
        return {c: len(ix) for c, ix in self._index.items()}

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)


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
    if m.n_samples < 1:
        raise ValueError("empty matrix")
    w0 = m.values.mean(axis=0)
    mqe0 = float(np.linalg.norm(m.values - w0, axis=1).mean())
    return w0, mqe0


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
    ``_kernel.Fit``): the kernel draws every epoch's permutation from the
    map's stream ``1 + epoch_base``, the draws numpy's
    ``Generator.permutation`` makes, and computes the schedule and each
    step's exp arguments with numpy's float operations in numpy's order.
    The steps go in blocks whose table holds about ``TABLE_FLOATS``
    floats, one row per distinct squared grid distance and one column per
    step, so a small map's cycle is one block. Per block numpy takes the
    ``exp`` of the table in place, because its vectorized ``exp`` and the
    C library's differ in the last bit, and the kernel applies the
    per-sample updates in one pass over the weights per step, with the
    float operations of numpy's ``w + (x - w) * (h * alpha)`` in the same
    order, so the weights match a per-sample numpy loop bit for bit. After
    the last block it assigns every routed sample to its nearest unit and
    computes each unit's mqe, the mean of its samples' distances in routed
    order as ``np.mean`` gives it (0 for an empty unit), the map MQE as
    ``SomMap.mqe`` gives it, and the stop verdict ``_fit_map`` reads.

    Inside ``_fit_map`` the map's arrays are set when it stops. A map
    without a context, such as one a caller builds, gets one for this
    cycle, and its weights, assignments and errors are set at once.
    """
    fit = som.fit
    if fit is not None:
        fit.train(1 + epoch_base)
        return som
    if len(som.sample_indices) == 0:
        raise ValueError("train_map needs at least one routed sample")
    fit = _open_fit(som, data, params, som.weights, math.nan)
    try:
        fit.train(1 + epoch_base)
        som.weights, som.unit_mqe, som.bmu_rows, som.bmu_cols = fit.store()
    finally:
        fit.close()
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
    the two flanking units. One kernel call does all of it: in place in
    the map's kernel context while ``_fit_map`` fits it, else on a copy
    of ``som.weights``.
    """
    if som.fit is not None:
        som.rows, som.cols = som.fit.grow()
        return som
    weights = np.ascontiguousarray(som.weights, dtype=np.float64)
    unit_mqe = np.ascontiguousarray(som.unit_mqe, dtype=np.float64)
    som.weights = _kernel.grow(weights, unit_mqe)
    som.rows, som.cols = som.weights.shape[:2]
    som.unit_mqe = np.zeros((som.rows, som.cols))
    return som


def _open_fit(som: SomMap, data, params: GhsomParams, weights, threshold: float):
    """A kernel context for fitting ``som`` on its routed samples of
    ``data``: from ``weights``, or from the mean and noise of the initial
    weights when they are None, stopping below ``threshold``."""
    return _kernel.Fit(data, som.sample_indices, som.rows, som.cols, weights,
                       lam=params.lam, alpha0=params.alpha0, sigma0=params.sigma0,
                       sigma_floor=SIGMA_FLOOR, noise=INIT_NOISE, seed=params.rng_seed,
                       path=som.path, threshold=threshold,
                       max_units=MAX_UNITS_PER_SAMPLE * len(som.sample_indices),
                       max_insertions=MAX_INSERTIONS, table_floats=TABLE_FLOATS)


def _init_map(path, parent_mqe, depth, sample_indices, data, params) -> SomMap:
    """Fresh 2x2 map and its kernel context, which holds its initial
    weights: the routed-data mean plus small seeded noise (stream 0 of
    the map; training cycles use streams 1 + epoch_base) scaled by the
    per-attribute spread, numpy's ``mean`` and ``std`` over the samples."""
    som = SomMap(2, 2, None, parent_mqe, depth, path, sample_indices)
    som.fit = _open_fit(som, data, params, None, params.tau1 * parent_mqe)
    return som


def _fit_map(som: SomMap, data: np.ndarray, params: GhsomParams) -> None:
    """Alternate training and row/column insertion until the map MQE
    drops below tau1 times the error it refines.

    ``train_map`` runs each cycle and ``grow_horizontal`` each insertion
    in the kernel context ``_init_map`` opened, and the kernel's verdict
    after a cycle says whether the map converged, reached a growth guard
    (the map's units or insertions) or grows on. When it stops, its
    weights, assignments and errors are stored into ``som`` and the
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
        som.weights, som.unit_mqe, som.bmu_rows, som.bmu_cols = fit.store()
    finally:
        som.fit = None
        fit.close()


def _expansion_threshold(tree: GhsomTree, som: SomMap, params: GhsomParams) -> float:
    """The error at or above which a unit of ``som`` gets a child map."""
    reference = tree.mqe0 if params.depth_reference == "global" else som.parent_mqe
    return params.tau2 * reference


def expand_hierarchy(
    tree: GhsomTree,
    som: SomMap,
    data: np.ndarray,
    params: GhsomParams,
) -> GhsomTree:
    """Spawn and fit child maps for every unit still above the depth
    threshold, then recurse.

    A unit expands when its mqe is at least ``tau2`` times the reference
    error (layer-0 by default), it holds at least 4 samples, and the
    depth budget allows. Children are fitted depth-first in row-major
    unit order; their RNG streams are derived from their paths, not from
    that order.
    """
    if som.depth >= params.max_depth:
        return tree
    threshold = _expansion_threshold(tree, som, params)
    units = som.rows * som.cols
    flat = som.bmu_rows * som.cols + som.bmu_cols
    mqe = som.unit_mqe.reshape(-1)
    expand = (mqe >= threshold) & (mqe > 0) & (np.bincount(flat, minlength=units) >= 4)
    if not expand.any():
        return tree

    members = som.members()
    for u in np.flatnonzero(expand).tolist():
        row, col = divmod(u, som.cols)
        child = _init_map(som.unit_path(row, col), float(mqe[u]), som.depth + 1, members[u],
                          data, params)
        som.children[(row, col)] = child
        _fit_map(child, data, params)
        expand_hierarchy(tree, child, data, params)
    return tree


def run_ghsom(m: DataMatrix, params: GhsomParams, threads: int = 1) -> GhsomTree:
    """Fit the full hierarchy on a data matrix.

    Parameters
    ----------
    m : DataMatrix
        Input samples (at least 4).
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
    data = np.ascontiguousarray(m.values, dtype=np.float64)
    w0, mqe0 = compute_layer0(m)
    root = _init_map("", mqe0, 1, np.arange(m.n_samples), data, params)
    tree = GhsomTree(
        w0=w0,
        mqe0=mqe0,
        root=root,
        params=params,
        sample_ids=list(m.sample_ids),
        attribute_names=list(m.attribute_names),
    )
    _fit_map(root, data, params)
    expand_hierarchy(tree, root, data, params)
    _check_refinement(tree)
    return tree


def prune(tree: GhsomTree, tau2: float) -> GhsomTree:
    """The tree ``run_ghsom`` fits at a larger ``tau2``, from one fitted
    at a smaller one with the same other parameters.

    ``tau2`` only decides which units get a child map, and a child map's
    fit reads neither ``tau2`` nor its siblings: its random streams come
    from (seed, path). So the larger-``tau2`` tree is this one without
    the child maps whose unit falls below the new threshold, compared
    exactly as ``expand_hierarchy`` compares it. The result shares the
    weight, assignment and error arrays of ``tree``.
    """
    params = replace(tree.params, tau2=tau2)
    params.validate()
    if tau2 < tree.params.tau2:
        raise ValueError(
            f"prune can only raise tau2: {tau2} < fitted tau2 {tree.params.tau2}"
        )

    return replace(tree, root=_pruned(tree, tree.root, params), params=params)


def _pruned(tree: GhsomTree, som: SomMap, params: GhsomParams) -> SomMap:
    # a module-level function, not a closure: a recursive closure is a
    # reference cycle that would keep ``tree`` alive until the cyclic
    # collector runs
    threshold = _expansion_threshold(tree, som, params)
    out = copy.copy(som)
    out.children = {
        key: _pruned(tree, child, params)
        for key, child in som.children.items()
        if som.unit_mqe[key] >= threshold
    }
    return out


def _check_refinement(tree: GhsomTree) -> None:
    """Log (not fail) when a child map's MQE exceeds the unit it refines."""
    for som in tree.iter_maps():
        for (row, col), child in som.children.items():
            if child.mqe > som.unit_mqe[row, col] + 1e-9:
                log.warning(
                    "child map %s has MQE %.6g above its unit's mqe %.6g",
                    child.path, child.mqe, som.unit_mqe[row, col],
                )


def find_cluster(tree: GhsomTree, path: str) -> np.ndarray:
    """Global sample indices of a named cluster, leaf or internal.

    An internal cluster (a unit that grew a child map) owns every sample
    routed to its subtree, i.e. the union of its descendant leaves. The
    path is followed one ``{col}x{row}`` name at a time through the
    maps' units, each name exactly as ``SomMap.unit_path`` writes it.
    """
    som = tree.root
    names = path.split("-")
    for depth, name in enumerate(names, 1):
        cells = {f"{c}x{r}": (r, c) for r in range(som.rows) for c in range(som.cols)}
        cell = cells.get(name)
        if cell is not None and depth == len(names):
            return som.members()[cell[0] * som.cols + cell[1]]
        som = som.children.get(cell)
        if som is None:
            break
    valid = [som.unit_path(*divmod(u, som.cols))
             for som in tree.iter_maps() for u in range(som.rows * som.cols)]
    raise KeyError(f"unknown cluster '{path}'; valid clusters: {', '.join(valid)}")


def leaf_partition(tree: GhsomTree) -> LeafPartition:
    """Flatten the tree: every sample labeled with its leaf unit's path.

    Each map, after its parent, numbers its routed samples with their
    units, counted over the whole tree, so a sample ends with the number
    of its leaf unit, one without a child map. Only the units samples end
    at are named.
    """
    maps = list(tree.iter_maps())
    starts = np.cumsum([0] + [som.rows * som.cols for som in maps]).tolist()
    units = starts[-1]
    code = np.full(len(tree.sample_ids), units, dtype=np.intp)
    # a sample that ends at a unit with a child map, or never routed
    # (number ``units``), is at no leaf
    inner = np.zeros(units + 1, dtype=bool)
    inner[units] = True
    for som, start in zip(maps, starts):
        code[som.sample_indices] = som.bmu_rows * som.cols + (som.bmu_cols + start)
        if som.children:
            inner[[start + row * som.cols + col for row, col in som.children]] = True
    missing = [tree.sample_ids[i] for i in np.flatnonzero(inner[code])]
    if missing:
        raise RuntimeError(f"samples not reachable at any leaf: {missing[:5]}")
    ends = np.flatnonzero(np.bincount(code, minlength=units))
    owner = np.searchsorted(starts, ends, side="right") - 1
    names = np.empty(units, dtype=object)
    names[ends] = [maps[k].unit_path(*divmod(u - starts[k], maps[k].cols))
                   for u, k in zip(ends.tolist(), owner.tolist())]
    return LeafPartition(sample_ids=list(tree.sample_ids), clusters=names[code].tolist())


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


def _map_to_dict(tree: GhsomTree, som: SomMap) -> dict:
    units = []
    for u, assigned in enumerate(som.members()):
        row, col = divmod(u, som.cols)
        child = som.children.get((row, col))
        units.append(
            {
                "row": row,
                "col": col,
                "weight": som.weights[row, col],
                "mqe": float(som.unit_mqe[row, col]),
                "assigned": [tree.sample_ids[i] for i in assigned],
                "child": _map_to_dict(tree, child) if child is not None else None,
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
    return dumps_stable({
        "format": "ghsom-tree/1",
        "params": asdict(tree.params),
        "sample_ids": tree.sample_ids,
        "attribute_names": tree.attribute_names,
        "w0": tree.w0,
        "mqe0": tree.mqe0,
        "root": _map_to_dict(tree, tree.root),
    })


def _map_from_dict(d: dict, path: str, depth: int, id_index: dict[str, int]) -> SomMap:
    rows, cols = d["rows"], d["cols"]
    name = path or "<root>"
    units = sorted(d["units"], key=lambda u: (u["row"], u["col"]))
    cells = [(u["row"], u["col"]) for u in units]
    if cells != [divmod(k, cols) for k in range(rows * cols)]:
        raise ValueError(f"map {name}: units do not tile its {rows}x{cols} grid")
    weights = np.array([u["weight"] for u in units], dtype=np.float64)
    try:
        members = [id_index[sid] for u in units for sid in u["assigned"]]
    except KeyError as exc:
        raise ValueError(f"map {name}: unknown sample id {exc.args[0]!r}") from None
    som = SomMap(rows, cols, weights.reshape(rows, cols, -1), d["parent_mqe"], depth, path,
                 members)
    counts = [len(u["assigned"]) for u in units]
    som.bmu_rows, som.bmu_cols = np.divmod(np.repeat(np.arange(rows * cols), counts), cols)
    som.unit_mqe = np.array([u["mqe"] for u in units], dtype=np.float64).reshape(rows, cols)
    for (row, col), u, assigned in zip(cells, units, som.members()):
        if u["child"] is not None:
            child = _map_from_dict(u["child"], som.unit_path(row, col), depth + 1, id_index)
            # a loaded map lists its samples by unit, so compare as sets
            if not np.array_equal(np.sort(child.sample_indices), np.sort(assigned)):
                raise ValueError(f"map {child.path}: routes other samples than its unit")
            som.children[(row, col)] = child
    return som


def tree_from_json(text: str) -> GhsomTree:
    """Load a tree written by ``tree_to_json``.

    The parameters must pass ``GhsomParams.validate``. Every map's units
    must tile its grid: one unit for each ``(row, col)`` with
    ``0 <= row < rows`` and ``0 <= col < cols``, in any order; each
    unit may assign only samples the tree lists; the root must route
    every sample exactly once, and each child map exactly the samples of
    its unit. Otherwise a ``ValueError`` names the field or the map.
    """
    d = json.loads(text)
    if d.get("format") != "ghsom-tree/1":
        raise ValueError("not a ghsom tree document")
    params = GhsomParams(**d["params"])
    params.validate()
    sample_ids = list(d["sample_ids"])
    id_index = {sid: i for i, sid in enumerate(sample_ids)}
    root = _map_from_dict(d["root"], "", 1, id_index)
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
