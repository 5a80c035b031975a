"""The three benchmark workloads: set-up, one timed repetition, checks.

Each workload calls the program through module attributes looked up at
call time (``ghsom.run_ghsom``, ``cli.main``), so the tracer's wrappers
see every call. Program output on stdout and stderr, including its
logging warnings, goes to a buffer that is dropped unless a command
fails.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

import ghsomkit
from ghsomkit import cli, evaluation, ghsom

import checks
import inputs
import reference

# the growth guards documented in ghsom.py: 4 units per routed sample,
# 64 insertions
GROWTH_CAPS = (getattr(ghsom, "MAX_UNITS_PER_SAMPLE", 4), getattr(ghsom, "MAX_INSERTIONS", 64))


@dataclass
class Rep:
    """One timed repetition of a workload's operation."""

    seconds: float
    attempted: int
    failed: int
    result: Any


def _matrix(blobs: inputs.Blobs) -> ghsomkit.DataMatrix:
    return ghsomkit.DataMatrix(
        values=blobs.values,
        sample_ids=blobs.sample_ids,
        attribute_names=[f"a{j}" for j in range(blobs.values.shape[1])],
        labels=blobs.fine,
    )


@contextlib.contextmanager
def _quiet():
    """Send program output, logging included, to a buffer."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield sink


def _tree_checks(what: str, tree_text: str, values: np.ndarray) -> list[str]:
    """Structural checks plus the JSON round trip of one tree."""
    doc = json.loads(tree_text)
    errors = [f"{what}: {e}" for e in checks.tree_errors(doc, values, GROWTH_CAPS)]
    again = ghsom.tree_to_json(ghsom.tree_from_json(tree_text))
    if again != tree_text:
        errors.append(f"{what}: tree_to_json(tree_from_json(text)) differs from text")
    return errors


def _library_tree_checks(what: str, tree, blobs: inputs.Blobs, m) -> tuple[list[str], dict]:
    text = ghsom.tree_to_json(tree)
    doc = json.loads(text)
    if doc["sample_ids"] != blobs.sample_ids:
        return [f"{what}: tree lists other sample ids than its input"], doc
    errors = _tree_checks(what, text, blobs.values)
    # the document holds the fitted tree exactly, not a rounded copy
    for fitted, loaded in zip(tree.iter_maps(), ghsom.tree_from_json(text).iter_maps()):
        if not (np.array_equal(fitted.weights, loaded.weights)
                and np.array_equal(fitted.unit_mqe, loaded.unit_mqe)):
            errors.append(f"{what}: map {fitted.path or '<root>'} does not survive tree_to_json")
    leaves = checks.leaf_clusters(doc)
    clusters = [leaves.get(sid, "") for sid in blobs.sample_ids]
    part = ghsom.leaf_partition(tree)
    if part.clusters != clusters:
        errors.append(f"{what}: leaf_partition disagrees with the tree's leaves")
    program_ch = evaluation.ch_index(part, m) if len(set(clusters)) > 1 else float("nan")
    errors += checks.score_errors(what, evaluation.ari(part, blobs.fine), program_ch,
                                  blobs.values, clusters, blobs.fine)
    return errors, doc


class FitNested:
    """Library fit, partition and scoring of clean two-scale blobs.

    One seed gives ``cycle`` independent data sets, and repetition ``i``
    fits data set ``i % cycle``: on some data sets (data set 0 of seeds
    12, 14 and 17) growth inserts one more row or column and the fit is
    about 10 % slower, and a run that fits several data sets moves by a
    share of that.
    """

    name = "fit-nested"
    unit = "fit"
    cycle = 4
    per_sub, spread = 100, 0.15
    tau1, tau2, lam = 0.3, 0.1, 30

    def setup(self, seed: int, run_dir: Path) -> dict:
        data = []
        for part in range(self.cycle):
            blobs = inputs.nested_blobs(seed, self.per_sub, self.spread, part=part)
            data.append({"blobs": blobs, "m": _matrix(blobs)})
        params = ghsomkit.GhsomParams(tau1=self.tau1, tau2=self.tau2, lam=self.lam, rng_seed=seed)
        return {"data": data, "params": params}

    def run(self, st: dict, rep: int, tracer) -> Rep:
        d = st["data"][rep % self.cycle]
        with _quiet():
            t = time.perf_counter()
            tree = ghsom.run_ghsom(d["m"], st["params"], threads=1)
            part = ghsom.leaf_partition(tree)
            score = evaluation.ari(part, d["blobs"].fine)
            evaluation.ch_index(part, d["m"])
            seconds = time.perf_counter() - t
        return Rep(seconds, 1, 0, {"tree": tree, "ari": score})

    def check(self, st: dict, reps: list[Rep], seed: int) -> list[str]:
        errors = []
        for part, d in enumerate(st["data"]):
            what = f"fit of data set {part}"
            mine = reps[part::self.cycle]
            if len({ghsom.tree_to_json(r.result["tree"]) for r in mine}) != 1:
                errors.append(f"{what}: repetitions fitted different trees")
            blobs = d["blobs"]
            tree_errors, doc = _library_tree_checks(what, mine[-1].result["tree"], blobs, d["m"])
            errors += tree_errors
            coarse_of = dict(zip(blobs.sample_ids, blobs.coarse))
            groups: dict[str, set] = {}
            for sid, leaf in checks.leaf_clusters(doc).items():
                groups.setdefault(leaf, set()).add(coarse_of[sid])
            mixed = sorted(leaf for leaf, g in groups.items() if len(g) > 1)
            if mixed:
                errors.append(f"{what}: leaves mixing coarse groups: {mixed[:5]}")
        return errors

    def ari(self, st: dict, reps: list[Rep]) -> float:
        """Mean over the data sets of the fit's ARI."""
        return float(np.mean([r.result["ari"] for r in reps[:self.cycle]]))


class SweepNoisy:
    """Threshold sweeps over noisy two-scale blobs.

    One seed gives ``cycle`` independent small data sets, and repetition
    ``i`` sweeps data set ``i % cycle``. Growth is chaotic: now and then a
    tau1 = 0.3 cell grows one more layer, and one 640-sample data set
    then trains 20 % more samples than the median one. A run times whole
    rounds over all the data sets, so each run sweeps the same number of
    data sets and such jumps average out; ``wall_s`` is the mean over
    the data sets of each one's median sweep time. Short sweeps also
    keep each repetition close to the reference kernel's samples.

    The timed sweep runs on one thread: with ``threads=2`` the pool's two
    fits contend for the interpreter lock, and repetitions on identical
    input took anywhere from 5.9 to 10.0 normalised seconds, a spread no
    bound could gate. The pool still runs once per run, after the timed
    region, and must give the same rows.
    """

    name = "sweep-noisy"
    unit = "sweep cell"
    cycle = 20
    n_coarse, per_sub, spread = 8, 5, 0.25
    tau1_values = (0.6, 0.45, 0.3)
    tau2_values = (0.2, 0.1, 0.05)
    lam, threads, check_threads = 10, 1, 2

    def setup(self, seed: int, run_dir: Path) -> dict:
        data = []
        for part in range(self.cycle):
            blobs = inputs.nested_blobs(seed, self.per_sub, self.spread,
                                        n_coarse=self.n_coarse, part=part)
            data.append({"blobs": blobs, "m": _matrix(blobs)})
        return {"data": data, "params": ghsomkit.GhsomParams(lam=self.lam, rng_seed=seed)}

    def run(self, st: dict, rep: int, tracer) -> Rep:
        d = st["data"][rep % self.cycle]
        with _quiet():
            t = time.perf_counter()
            grid = evaluation.sweep(d["m"], st["params"], self.tau1_values, self.tau2_values,
                                    labels=d["blobs"].fine, threads=self.threads)
            seconds = time.perf_counter() - t
        failed = sum(1 for c in grid.cells.values() if c.error)
        return Rep(seconds, len(grid.cells), failed, grid)

    @staticmethod
    def _rows(grid) -> list[tuple]:
        return [
            (c.tau1, c.tau2, repr(c.ch), repr(c.ari), c.leaf_count, c.depth, c.total_units, c.error)
            for _, c in sorted(grid.cells.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))
        ]

    def check(self, st: dict, reps: list[Rep], seed: int) -> list[str]:
        errors = []
        grids = [r.result for r in reps[:self.cycle]]
        for i, r in enumerate(reps[self.cycle:], self.cycle):
            if self._rows(r.result) != self._rows(grids[i % self.cycle]):
                errors.append(f"data set {i % self.cycle}: repetitions gave different sweep grids")
        expected = [(t1, t2) for t1 in self.tau1_values for t2 in self.tau2_values]
        for part, grid in enumerate(grids):
            if sorted(grid.cells) != sorted(expected):
                return errors + [f"data set {part}: sweep cells {sorted(grid.cells)} != {expected}"]
            errors += [f"data set {part}, cell {k}: {c.error}"
                       for k, c in grid.cells.items() if c.error]
            for t1 in self.tau1_values:
                cells = [grid.cells[(t1, t2)] for t2 in sorted(self.tau2_values, reverse=True)]
                for a, b in zip(cells, cells[1:]):
                    if b.leaf_count < a.leaf_count or b.depth < a.depth:
                        errors.append(f"data set {part}, tau1={t1}: tau2 {a.tau2} -> {b.tau2}"
                                      " lost leaves or depth")
            best = evaluation.sweep_summary(grid)["best_by_ari"]["ari"]
            if best != max(c.ari for c in grid.cells.values()):
                errors.append(f"data set {part}: sweep_summary best ari is not the largest cell ari")

        # the pool on one data set, and one cell of another refitted
        # directly, both chosen by the seed
        d = st["data"][seed % self.cycle]
        with _quiet():
            pooled = evaluation.sweep(d["m"], st["params"], self.tau1_values, self.tau2_values,
                                      labels=d["blobs"].fine, threads=self.check_threads)
        if self._rows(pooled) != self._rows(grids[seed % self.cycle]):
            errors.append(f"threads={self.check_threads} gave other rows than threads={self.threads}")
        part = (seed + 1) % self.cycle
        blobs, m = st["data"][part]["blobs"], st["data"][part]["m"]
        t1, t2 = expected[seed % len(expected)]
        with _quiet():
            tree = ghsom.run_ghsom(m, replace(st["params"], tau1=t1, tau2=t2))
        what = f"data set {part}, cell ({t1}, {t2}) refit"
        tree_errors, doc = _library_tree_checks(what, tree, blobs, m)
        errors += tree_errors
        cell = grids[part].cells[(t1, t2)]
        partition = ghsom.leaf_partition(tree)
        leaves = len(set(partition.clusters))
        got = (leaves, tree.depth(), tree.total_units(), evaluation.ari(partition, blobs.fine))
        want = (cell.leaf_count, cell.depth, cell.total_units, cell.ari)
        if got != want:
            errors.append(f"{what}: (leaves, depth, units, ari) {got} != sweep row {want}")
        if leaves > 1 and not checks.close(evaluation.ch_index(partition, m), cell.ch):
            errors.append(f"{what}: ch differs from the sweep row")
        return errors

    def ari(self, st: dict, reps: list[Rep]) -> float:
        """Mean over the data sets of the best cell's ARI."""
        return float(np.mean([evaluation.sweep_summary(r.result)["best_by_ari"]["ari"]
                              for r in reps[:self.cycle]]))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class CliWide:
    """In-process CLI run on a wide labelled CSV: cluster, sai, both
    maps and the two-pass pipeline."""

    name = "cli-wide"
    unit = "command"
    cycle = 1
    per_sub, spread = 75, 0.15
    n_attributes, top_k = 2000, 20
    noise = (0.01, 0.05)
    fit_flags = ["--tau1", "0.3", "--tau2", "0.1", "--lambda", "10"]
    label_column = "subblob"

    def setup(self, seed: int, run_dir: Path) -> dict:
        table = inputs.wide_table(seed, self.per_sub, self.spread, self.n_attributes, *self.noise)
        path = run_dir / "input.csv"
        inputs.write_csv(table, path, self.label_column)
        return {"table": table, "input": path, "run_dir": run_dir, "seed": seed,
                "choice": None, "digests": []}

    def _call(self, argv: list[str], tracer) -> tuple[int, float]:
        span = tracer.open(f"cli.{argv[0]}") if tracer else None
        with _quiet() as sink:
            t = time.perf_counter()
            code = cli.main(argv, env={})
            seconds = time.perf_counter() - t
        if span:
            tracer.close(span)
        if code != 0:
            print(f"bench: `{' '.join(argv)}` returned {code}:\n{sink.getvalue()[-2000:]}",
                  file=sys.stderr)
        return code, seconds

    def _choose(self, st: dict, out: Path) -> tuple[str, str]:
        """Seed-chosen leaf for sai and the significance map, and
        seed-chosen internal cluster for the pipeline."""
        leaves = sorted({row[1] for row in _read_csv(out / "partition.csv")[1:]})
        doc = json.loads((out / "tree.json").read_text(encoding="utf-8"))
        internal = sorted(checks.unit_path("", u) for u in doc["root"]["units"]
                          if u["child"] is not None)
        if not leaves or not internal:
            raise RuntimeError("cluster produced no leaf or no internal cluster to pick")
        return leaves[st["seed"] % len(leaves)], internal[st["seed"] % len(internal)]

    def run(self, st: dict, rep: int, tracer) -> Rep:
        out = st["run_dir"] / f"rep{rep}"
        seed = str(st["seed"])
        codes, seconds = [], 0.0

        def call(argv):
            nonlocal seconds
            code, s = self._call(argv, tracer)
            codes.append(code)
            seconds += s

        call(["cluster", "--input", str(st["input"]), "--labels-column", self.label_column,
              "--out-dir", str(out), "--top-k-variable", str(self.top_k), "--seed", seed,
              *self.fit_flags])
        if st["choice"] is None:
            st["choice"] = self._choose(st, out)
        target, pick = st["choice"]
        call(["sai", "--out-dir", str(out), "--target-cluster", target])
        call(["render-feature-map", "--out-dir", str(out), "--feature", "significance",
              "--target-cluster", target])
        call(["render-distribution-map", "--out-dir", str(out), "--feature", "label"])
        call(["pipeline-crispr", "--out-dir", str(out), "--pick", pick, "--seed", seed,
              *self.fit_flags])

        # keep one rep's artifacts on disk, and every rep's digests; the
        # config files record the rep's own --out-dir
        st["digests"].append({p.relative_to(out).as_posix(): _digest(p)
                              for p in sorted(out.rglob("*"))
                              if p.is_file() and not p.name.startswith("config.")})
        if rep > 0:
            shutil.rmtree(st["run_dir"] / f"rep{rep - 1}")
        st["last"] = out
        return Rep(seconds, len(codes), sum(1 for c in codes if c != 0), codes)

    def check(self, st: dict, reps: list[Rep], seed: int) -> list[str]:
        errors = [f"command {i} returned {c}" for r in reps for i, c in enumerate(r.result) if c]
        if errors:
            return errors
        first = st["digests"][0]
        for d in st["digests"][1:]:
            differ = sorted(k for k in first.keys() | d.keys() if first.get(k) != d.get(k))
            if differ:
                errors.append(f"repetitions wrote different artifacts: {differ}")
                break
        out, table = st["last"], st["table"]
        target, pick = st["choice"]
        blobs = table.blobs
        ids = blobs.sample_ids

        # matrix.csv is the top-k selection of the input
        sel = reference.top_k_variable(table.values, self.top_k)
        values = table.values[:, sel]
        names = [table.attribute_names[j] for j in sel]
        rows = _read_csv(out / "matrix.csv")
        if rows[0] != ["id", *names, self.label_column]:
            errors.append("matrix.csv columns are not the top-k variable attributes")
            return errors
        body = rows[1:]
        got = np.array([[float(v) for v in r[1:-1]] for r in body])
        if [r[0] for r in body] != ids or not np.array_equal(got, values):
            errors.append("matrix.csv values differ from the top-k selection of the input")
        if [r[-1] for r in body] != blobs.fine:
            errors.append("matrix.csv labels differ from the input labels")

        # tree, partition and scores
        text = (out / "tree.json").read_text(encoding="utf-8").rstrip("\n")
        doc = json.loads(text)
        if doc["sample_ids"] != ids:
            return errors + ["tree.json lists other sample ids than the input"]
        errors += _tree_checks("cluster tree", text, values)
        leaf_of = checks.leaf_clusters(doc)
        part_rows = _read_csv(out / "partition.csv")[1:]
        clusters = [c for _, c in part_rows]
        if [s for s, _ in part_rows] != ids or clusters != [leaf_of.get(s) for s in ids]:
            errors.append("partition.csv disagrees with tree.json")
        m = ghsomkit.DataMatrix(values, ids, names, labels=blobs.fine)
        part = ghsomkit.LeafPartition(sample_ids=ids, clusters=clusters)
        errors += checks.score_errors("cluster", self.ari(st, reps), evaluation.ch_index(part, m),
                                      values, clusters, blobs.fine)

        errors += self._check_sai(out / f"sai_{target}.csv", values, clusters, names, target)
        sizes = {c: clusters.count(c) for c in set(clusters)}
        fmap = json.loads((out / "feature_map.json").read_text(encoding="utf-8"))
        errors += reference.treemap_errors(fmap["nodes"], fmap["plot"])
        if {n["path"]: n["count"] for n in fmap["nodes"] if n["leaf"]} != sizes:
            errors.append("feature map leaves do not match partition sizes")
        dmap = json.loads((out / "distribution_map.json").read_text(encoding="utf-8"))
        errors += reference.bubble_errors(dmap["nodes"])
        if {n["path"]: n["count"] for n in dmap["nodes"]} != sizes:
            errors.append("distribution map bubbles do not match partition sizes")

        errors += self._check_stage2(out / f"stage2_{pick}", values, names, ids, clusters, pick)
        return errors

    def _check_sai(self, path: Path, values, clusters, names, target) -> list[str]:
        rows = _read_csv(path)[1:]
        sigma_i, sigma_b, diff = reference.sai(values, clusters, target)
        col = {n: j for j, n in enumerate(names)}
        errors = []
        listed = [r[2] for r in rows]
        for cluster, rank, attr, si, sb, d in rows:
            j = col[attr]
            if cluster != target or not all(checks.close(float(a), b) for a, b in
                                             ((si, sigma_i[j]), (sb, sigma_b[j]), (d, diff[j]))):
                errors.append(f"sai row {rank} ({attr}) differs from the recomputation")
        if [int(r[1]) for r in rows] != list(range(1, len(rows) + 1)):
            errors.append("sai ranks are not 1..k")
        if listed != reference.sai_order(diff, names)[:len(listed)]:
            # only near-equal diffs may swap places
            tol = checks.REL * max(1.0, float(np.abs(diff).max()))
            d = [diff[col[a]] for a in listed]
            rest = [diff[j] for j, n in enumerate(names) if n not in set(listed)]
            if any(a < b - tol for a, b in zip(d, d[1:])) or (rest and min(d) < max(rest) - tol):
                errors.append("sai rank order differs from the recomputation")
        return errors

    def _check_stage2(self, stage: Path, values, names, ids, clusters, pick) -> list[str]:
        errors = []
        members = {s for s, c in zip(ids, clusters) if c.startswith(pick + "-")}
        rows = _read_csv(stage / "matrix.csv")
        header = rows[0][1:]
        if set(header) != members or len(header) != len(members):
            return [f"stage-2 columns are not the members of {pick}"]
        row_of = {s: i for i, s in enumerate(ids)}
        picked = values[[row_of[s] for s in header]]
        if [r[0] for r in rows[1:]] != names:
            errors.append("stage-2 rows are not the attributes")
        elif not np.array_equal(np.array([[float(v) for v in r[1:]] for r in rows[1:]]), picked.T):
            errors.append("stage-2 matrix is not the transpose of the picked rows")
        text = (stage / "tree.json").read_text(encoding="utf-8").rstrip("\n")
        doc = json.loads(text)
        if doc["sample_ids"] != names or doc["attribute_names"] != header:
            return errors + ["stage-2 tree lists other samples or attributes than its matrix"]
        errors += _tree_checks("stage-2 tree", text, picked.T)
        leaf_of = checks.leaf_clusters(doc)
        part = _read_csv(stage / "partition.csv")[1:]
        if [(s, c) for s, c in part] != [(n, leaf_of.get(n)) for n in names]:
            errors.append("stage-2 partition.csv disagrees with its tree.json")
        return errors

    def ari(self, st: dict, reps: list[Rep]) -> float:
        rows = _read_csv(st["last"] / "partition.csv")[1:]
        part = ghsomkit.LeafPartition(sample_ids=[r[0] for r in rows], clusters=[r[1] for r in rows])
        return evaluation.ari(part, st["table"].blobs.fine)


WORKLOADS = {w.name: w for w in (FitNested(), SweepNoisy(), CliWide())}
