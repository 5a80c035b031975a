"""The benchmark tracer wraps functions by module and name; a rename in
the package would only surface as a crash of ``bench/run.py --trace 1``.
This checks every probe against the package, and the counts the tracer
reads from a fitted tree and from a growth cycle against the tree's JSON
document, reading ``bench/tracing.py`` without changing anything under
``bench/``."""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from ghsomkit import GhsomParams, ghsom, nested_blobs

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_probe_names_a_function_of_its_module(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.PROBES
    for probe in tracing.PROBES:
        fn = getattr(importlib.import_module(probe.module), probe.function, None)
        assert inspect.isfunction(fn), probe
        assert fn.__module__ == probe.module, probe


def _doc_maps(node, path=""):
    """``(path, map)`` for every map of a ``tree_to_json`` document, the
    root first, each unit's child map named by its unit's path."""
    yield path, node
    for unit in node["units"]:
        if unit["child"] is not None:
            name = f"{unit['col']}x{unit['row']}"
            yield from _doc_maps(unit["child"], f"{path}-{name}" if path else name)


def _probed_fit(monkeypatch, tracing):
    """A fit with some growth-capped maps and some empty units, its
    ``tree_to_json`` document, and each ``train_map`` call's
    ``_train_map_attrs`` with the map's path, taken before the call as the
    tracer takes them."""
    m = nested_blobs(n_coarse=4, n_sub=3, per_sub=5, dim=4, spread=0.4, seed=2)
    params = GhsomParams(tau1=0.3, tau2=0.05, lam=10, rng_seed=2)
    calls = []
    train = ghsom.train_map

    def probed(*args, **kwargs):
        calls.append((args[0].path, tracing._train_map_attrs(args, kwargs)))
        return train(*args, **kwargs)

    monkeypatch.setattr(ghsom, "train_map", probed)
    tree = ghsom.run_ghsom(m, params)
    return m, params, tree, json.loads(ghsom.tree_to_json(tree)), calls


def test_tree_attrs_count_what_the_tree_document_holds(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    m, params, tree, doc, _ = _probed_fit(monkeypatch, tracing)
    maps = [node for _, node in _doc_maps(doc["root"])]
    units = [unit for node in maps for unit in node["units"]]
    capped = 0
    for node in maps:
        errors = np.array([unit["mqe"] for unit in node["units"] if unit["assigned"]])
        mqe = float(errors.sum() / len(errors)) if len(errors) else 0.0
        capped += mqe >= params.tau1 * node["parent_mqe"]
    want = {"maps": len(maps), "units": len(units), "capped_maps": capped,
            "occupied_units": sum(1 for unit in units if unit["assigned"])}
    assert tracing._tree_attrs((m, params), {}, tree) == want
    # the fit exercises every count: several maps, a capped one, empty units
    assert want["maps"] > 1 and 0 < capped < want["maps"]
    assert want["occupied_units"] < want["units"]


def test_train_map_attrs_count_each_cycle(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    _, params, _, doc, calls = _probed_fit(monkeypatch, tracing)
    cycles = {}
    for path, attrs in calls:
        cycles.setdefault(path, []).append(attrs)
    maps = dict(_doc_maps(doc["root"]))
    assert list(cycles) == list(maps)
    for path, node in maps.items():
        routed = sum(len(unit["assigned"]) for unit in node["units"])
        sizes = [attrs["units"] for attrs in cycles[path]]
        # a map starts at 2x2 and gains a row or a column between cycles
        assert len(sizes) == node["rows"] + node["cols"] - 3
        assert sizes[0] == 4 and sizes[-1] == node["rows"] * node["cols"]
        assert sizes == sorted(set(sizes))
        assert {attrs["sample_updates"] for attrs in cycles[path]} == {params.lam * routed}
