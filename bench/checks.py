"""Properties every fitted tree must have, checked from its JSON document.

The checks read the tree through ``tree.json``'s documented layout
(``ghsom-tree/1``) and the benchmark's own copy of the data, and
compare with ``reference``; they never compare with a stored copy of
an earlier output. Each returns a list of error messages, empty when
the tree passes.
"""

from __future__ import annotations

import numpy as np

import reference

# tolerance for floats the program and the reference compute in a
# different order
REL = 1e-9
MIN_EXPAND_SAMPLES = 4


def close(a: float, b: float, rel: float = REL) -> bool:
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def iter_maps(doc: dict):
    """Yield (path, map dict) for every map, root first; the root's path is ''."""
    stack = [("", doc["root"])]
    while stack:
        path, som = stack.pop()
        yield path, som
        for unit in som["units"]:
            if unit["child"] is not None:
                name = f"{unit['col']}x{unit['row']}"
                stack.append((f"{path}-{name}" if path else name, unit["child"]))


def unit_path(map_path: str, unit: dict) -> str:
    name = f"{unit['col']}x{unit['row']}"
    return f"{map_path}-{name}" if map_path else name


def leaf_clusters(doc: dict) -> dict[str, str]:
    """Sample id -> leaf path, read from the tree document."""
    out = {}
    for path, som in iter_maps(doc):
        for unit in som["units"]:
            if unit["child"] is None:
                for sid in unit["assigned"]:
                    out[sid] = unit_path(path, unit)
    return out


def tree_errors(doc: dict, values: np.ndarray, growth_caps: tuple[int, int]) -> list[str]:
    """Check a fitted tree against the data it was fitted on.

    ``values`` holds one row per sample in ``doc["sample_ids"]`` order.
    ``growth_caps`` is (units per routed sample, insertions): the guards
    at which a map stops growing without meeting tau1.
    """
    errors = []
    params = doc["params"]
    ids = doc["sample_ids"]
    row_of = {sid: i for i, sid in enumerate(ids)}
    units_per_sample, max_insertions = growth_caps

    leaf_count = np.zeros(len(ids), dtype=np.int64)
    for path, som in iter_maps(doc):
        where = path or "<root>"
        units = sorted(som["units"], key=lambda u: (u["row"], u["col"]))
        if len(units) != som["rows"] * som["cols"]:
            errors.append(f"map {where}: {len(units)} units for a {som['rows']}x{som['cols']} grid")
            continue
        weights = np.array([u["weight"] for u in units], dtype=np.float64)
        routed = [(row_of[sid], k) for k, u in enumerate(units) for sid in u["assigned"]]
        rows = np.array([r for r, _ in routed], dtype=np.intp)
        owner = np.array([k for _, k in routed], dtype=np.intp)
        x = values[rows]

        # routed samples sit at their brute-force nearest unit
        best, dist = reference.nearest_unit(x, weights)
        own = dist[np.arange(len(rows)), owner]
        nearest = dist[np.arange(len(rows)), best]
        wrong = np.flatnonzero(own > nearest + REL * np.maximum(1.0, nearest))
        if wrong.size:
            errors.append(
                f"map {where}: {wrong.size} samples are not at their nearest unit "
                f"(first: {ids[rows[wrong[0]]]})"
            )

        # unit errors match a recomputation
        occupied = []
        for k, u in enumerate(units):
            mqe = reference.unit_mqe(x[owner == k], weights[k])
            if not close(u["mqe"], mqe):
                errors.append(f"unit {unit_path(path, u)}: mqe {u['mqe']!r}, recomputed {mqe!r}")
            if u["assigned"]:
                occupied.append(u["mqe"])

        # a map meets tau1 or stops at a growth guard
        map_mqe = sum(occupied) / len(occupied) if occupied else 0.0
        insertions = som["rows"] + som["cols"] - 4
        converged = map_mqe < params["tau1"] * som["parent_mqe"] or map_mqe == 0.0
        capped = (
            som["rows"] * som["cols"] >= units_per_sample * len(rows)
            or insertions >= max_insertions
        )
        if not (converged or capped):
            errors.append(
                f"map {where}: MQE {map_mqe:.6g} >= tau1 * parent "
                f"{params['tau1'] * som['parent_mqe']:.6g} below the growth caps "
                f"({som['rows']}x{som['cols']}, {len(rows)} samples)"
            )

        # a leaf unit is below tau2, too small to expand, or at max depth
        reference_mqe = doc["mqe0"] if params["depth_reference"] == "global" else som["parent_mqe"]
        for u in units:
            if u["child"] is not None:
                continue
            for sid in u["assigned"]:
                leaf_count[row_of[sid]] += 1
            if not (
                u["mqe"] < params["tau2"] * reference_mqe
                or len(u["assigned"]) < MIN_EXPAND_SAMPLES
                or som["depth"] >= params["max_depth"]
            ):
                errors.append(f"leaf {unit_path(path, u)}: mqe {u['mqe']:.6g} should have expanded")

    if not np.all(leaf_count == 1):
        bad = np.flatnonzero(leaf_count != 1)
        errors.append(
            f"{bad.size} samples are not in exactly one leaf "
            f"(first: {ids[bad[0]]} in {leaf_count[bad[0]]})"
        )
    return errors


def score_errors(what: str, program_ari: float, program_ch: float,
                 values: np.ndarray, clusters: list[str], truth: list[str]) -> list[str]:
    """The program's ARI and CH against the reference values."""
    errors = []
    ref_ari = reference.ari(clusters, truth)
    if not close(program_ari, ref_ari):
        errors.append(f"{what}: ari {program_ari!r}, reference {ref_ari!r}")
    ref_ch = reference.ch(values, clusters)
    if not close(program_ch, ref_ch):
        errors.append(f"{what}: ch_index {program_ch!r}, reference {ref_ch!r}")
    return errors
