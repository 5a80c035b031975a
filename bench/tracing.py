"""Spans around calls into the program's layers, and the per-layer
metrics derived from them.

The tracer wraps public functions of the ``ghsomkit`` modules at every
name a caller looks them up by: ``cli`` and ``evaluation`` import
``run_ghsom``, ``load_csv`` and friends by name, so each of those
bindings gets its own wrapper around the same original function. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _cpu_seconds() -> float:
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


# --- counts taken from call arguments and results ---------------------------

def _load_csv_attrs(args, kwargs, m) -> dict:
    return {"cells": m.values.size + (m.n_samples if m.labels is not None else 0)}


def _train_map_attrs(args, kwargs) -> dict:
    som = args[0] if args else kwargs["som"]
    params = args[2] if len(args) > 2 else kwargs["params"]
    # taken before the call: growth replaces the map's weights in place
    return {"sample_updates": params.lam * len(som.sample_indices),
            "units": som.rows * som.cols}


def _tree_attrs(args, kwargs, tree) -> dict:
    maps = units = capped = occupied = 0
    tau1 = tree.params.tau1
    for som in tree.iter_maps():
        maps += 1
        units += som.rows * som.cols
        occupied += len(np.unique(som.bmu_rows * som.cols + som.bmu_cols))
        if som.mqe >= tau1 * som.parent_mqe:
            capped += 1
    return {"maps": maps, "units": units, "capped_maps": capped, "occupied_units": occupied}


def _text_bytes(args, kwargs, text) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


def _svg_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result[0].encode("utf-8"))}


def _sweep_attrs(args, kwargs, grid) -> dict:
    return {"cells": len(grid.cells)}


@dataclass(frozen=True)
class Probe:
    name: str  # span name: layer.function
    module: str
    function: str
    before: Callable | None = None
    after: Callable | None = None
    cpu: bool = False


PROBES = [
    Probe("data.load_csv", "ghsomkit.data", "load_csv", after=_load_csv_attrs),
    Probe("data.save_csv", "ghsomkit.data", "save_csv"),
    Probe("data.preprocess", "ghsomkit.data", "preprocess"),
    Probe("ghsom.run_ghsom", "ghsomkit.ghsom", "run_ghsom", after=_tree_attrs),
    Probe("ghsom.train_map", "ghsomkit.ghsom", "train_map", before=_train_map_attrs),
    Probe("ghsom.expand_hierarchy", "ghsomkit.ghsom", "expand_hierarchy"),
    Probe("ghsom.grow_horizontal", "ghsomkit.ghsom", "grow_horizontal"),
    Probe("ghsom.leaf_partition", "ghsomkit.ghsom", "leaf_partition"),
    Probe("ghsom.tree_to_json", "ghsomkit.ghsom", "tree_to_json", after=_text_bytes),
    Probe("ghsom.tree_from_json", "ghsomkit.ghsom", "tree_from_json"),
    Probe("ghsom.find_cluster", "ghsomkit.ghsom", "find_cluster"),
    Probe("evaluation.sweep", "ghsomkit.evaluation", "sweep", after=_sweep_attrs, cpu=True),
    Probe("evaluation.ari", "ghsomkit.evaluation", "ari"),
    Probe("evaluation.ch_index", "ghsomkit.evaluation", "ch_index"),
    Probe("sai.identify_significant", "ghsomkit.sai", "identify_significant"),
    Probe("viz.render_feature_map", "ghsomkit.viz", "render_feature_map", after=_svg_bytes),
    Probe("viz.render_distribution_map", "ghsomkit.viz", "render_distribution_map",
          after=_svg_bytes),
]

CLI_COMMANDS = ("cluster", "sai", "render-feature-map", "render-distribution-map",
                "pipeline-crispr")

# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "data.load_csv.s": ("s", "lower"),
    "data.load_csv.cells": ("count", "lower"),
    "data.save_csv.s": ("s", "lower"),
    "data.preprocess.s": ("s", "lower"),
    "ghsom.run_ghsom.s": ("s", "lower"),
    "ghsom.train_map.s": ("s", "lower"),
    "ghsom.train_map.calls": ("count", "lower"),
    "ghsom.train_map.sample_updates": ("count", "lower"),
    "ghsom.train_map.unit_updates": ("count", "lower"),
    "ghsom.train_map.ns_per_unit_update": ("ns", "lower"),
    "ghsom.expand_hierarchy.self_s": ("s", "lower"),
    "ghsom.grow_horizontal.calls": ("count", "lower"),
    "ghsom.maps": ("count", "lower"),
    "ghsom.units": ("count", "lower"),
    "ghsom.capped_maps": ("count", "lower"),
    "ghsom.occupied_unit_ratio": ("1", "higher"),
    "ghsom.leaf_partition.s": ("s", "lower"),
    "ghsom.tree_to_json.s": ("s", "lower"),
    "ghsom.tree_to_json.bytes": ("bytes", "lower"),
    "ghsom.tree_from_json.s": ("s", "lower"),
    "ghsom.find_cluster.s": ("s", "lower"),
    "evaluation.sweep.s": ("s", "lower"),
    "evaluation.sweep.fits": ("count", "lower"),
    "evaluation.sweep.fits_per_cell": ("1", "lower"),
    "evaluation.sweep.busy_ratio": ("1", "higher"),
    "evaluation.ari.s": ("s", "lower"),
    "evaluation.ch_index.s": ("s", "lower"),
    "sai.identify_significant.s": ("s", "lower"),
    "sai.identify_significant.calls": ("count", "lower"),
    "viz.render_feature_map.s": ("s", "lower"),
    "viz.render_distribution_map.s": ("s", "lower"),
    "viz.svg_bytes": ("bytes", "lower"),
    **{f"cli.{c}.s": ("s", "lower") for c in CLI_COMMANDS},
    "cli.self_s": ("s", "lower"),
}


class Tracer:
    """Records spans while installed; one list of spans per repetition."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, cpu: bool = False) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            # a pool worker's first span belongs to the span that is open
            # in the thread that handed it the work
            parent = self._main_stack[-1].id if self._main_stack else None
        with self._lock:
            span = Span(next(self._ids), parent, name, threading.get_ident(), 0.0)
            self.spans.append(span)
        if cpu:
            span.attrs["cpu0"] = _cpu_seconds()
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if "cpu0" in span.attrs:
            span.attrs["cpu_s"] = _cpu_seconds() - span.attrs.pop("cpu0")
        self._stack().pop()

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            attrs = probe.before(args, kwargs) if probe.before else {}
            span = self.open(probe.name, probe.cpu)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.attrs.update(attrs)
            if probe.after:
                span.attrs.update(probe.after(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each probed function in the package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ghsomkit" or name.startswith("ghsomkit."))]
        for probe in PROBES:
            original = getattr(sys.modules[probe.module], probe.function)
            wrapper = self._wrap(probe, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one repetition's spans."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def ancestors(s: Span):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        # a recursive call's time is already inside its caller's span
        return sum(s.seconds for s in named(name)
                   if not any(a.name == name for a in ancestors(s)))

    def self_time(s: Span) -> float:
        kids = [(c.start, c.end) for c in children.get(s.id, [])]
        return s.seconds - _covered(kids, s.start, s.end)

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in named(name))

    train = named("ghsom.train_map")
    train_s = total("ghsom.train_map")
    sample_updates = sum(s.attrs["sample_updates"] for s in train)
    unit_updates = sum(s.attrs["sample_updates"] * s.attrs["units"] for s in train)
    units = attr_sum("ghsom.run_ghsom", "units")
    sweeps = named("evaluation.sweep")
    sweep_s = total("evaluation.sweep")
    sweep_cells = attr_sum("evaluation.sweep", "cells")
    sweep_fits = sum(1 for s in named("ghsom.run_ghsom")
                     if any(a.name == "evaluation.sweep" for a in ancestors(s)))
    cli_spans = [s for s in spans if s.name.startswith("cli.")]

    out = {
        "data.load_csv.s": total("data.load_csv"),
        "data.load_csv.cells": attr_sum("data.load_csv", "cells"),
        "data.save_csv.s": total("data.save_csv"),
        "data.preprocess.s": total("data.preprocess"),
        "ghsom.run_ghsom.s": total("ghsom.run_ghsom"),
        "ghsom.train_map.s": train_s,
        "ghsom.train_map.calls": len(train),
        "ghsom.train_map.sample_updates": sample_updates,
        "ghsom.train_map.unit_updates": unit_updates,
        "ghsom.train_map.ns_per_unit_update": 1e9 * train_s / unit_updates if unit_updates else 0.0,
        "ghsom.expand_hierarchy.self_s": sum(self_time(s) for s in named("ghsom.expand_hierarchy")),
        "ghsom.grow_horizontal.calls": len(named("ghsom.grow_horizontal")),
        "ghsom.maps": attr_sum("ghsom.run_ghsom", "maps"),
        "ghsom.units": units,
        "ghsom.capped_maps": attr_sum("ghsom.run_ghsom", "capped_maps"),
        "ghsom.occupied_unit_ratio": (attr_sum("ghsom.run_ghsom", "occupied_units") / units
                                      if units else 0.0),
        "ghsom.leaf_partition.s": total("ghsom.leaf_partition"),
        "ghsom.tree_to_json.s": total("ghsom.tree_to_json"),
        "ghsom.tree_to_json.bytes": attr_sum("ghsom.tree_to_json", "bytes"),
        "ghsom.tree_from_json.s": total("ghsom.tree_from_json"),
        "ghsom.find_cluster.s": total("ghsom.find_cluster"),
        "evaluation.sweep.s": sweep_s,
        "evaluation.sweep.fits": sweep_fits,
        "evaluation.sweep.fits_per_cell": sweep_fits / sweep_cells if sweep_cells else 0.0,
        "evaluation.sweep.busy_ratio": (sum(s.attrs["cpu_s"] for s in sweeps) / sweep_s
                                        if sweep_s else 0.0),
        "evaluation.ari.s": total("evaluation.ari"),
        "evaluation.ch_index.s": total("evaluation.ch_index"),
        "sai.identify_significant.s": total("sai.identify_significant"),
        "sai.identify_significant.calls": len(named("sai.identify_significant")),
        "viz.render_feature_map.s": total("viz.render_feature_map"),
        "viz.render_distribution_map.s": total("viz.render_distribution_map"),
        "viz.svg_bytes": (attr_sum("viz.render_feature_map", "bytes")
                          + attr_sum("viz.render_distribution_map", "bytes")),
        **{f"cli.{c}.s": total(f"cli.{c}") for c in CLI_COMMANDS},
        "cli.self_s": sum(self_time(s) for s in cli_spans),
    }
    assert list(out) == list(LAYER_METRICS)
    return out


def write_spans(path, reps: list[list[Span]], extra: dict) -> None:
    """Write every repetition's spans as JSON, with run facts in ``extra``."""
    doc = dict(extra)
    doc["fields"] = ["id", "parent", "name", "thread", "start", "end", "attrs"]
    doc["repetitions"] = [
        [[s.id, s.parent, s.name, s.thread, s.start, s.end, s.attrs] for s in spans]
        for spans in reps
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
