"""Command-line workflow driver.

Subcommands cover the full routine: ``gen-synthetic`` writes a test
matrix, ``cluster`` fits the hierarchy and dumps tree/partition/matrix,
``sweep`` grids over (tau1, tau2), ``sai`` ranks attributes for one
cluster, ``render-feature-map`` / ``render-distribution-map`` draw SVG
views, and ``pipeline-crispr`` re-clusters the transposed rows of a
picked cluster (the two-pass screen workflow). Each artifact has one
writer: the pipeline runs the fit, ranking and map stages that
``cluster``, ``sai`` and the renderers run.

Every flag can be preset through the environment with the ``GHSOMKIT_``
prefix (e.g. ``GHSOMKIT_TAU1=0.05``), and a previously written resolved
config can be replayed with ``--config``. Precedence: explicit flag >
environment > config file > built-in default. Each command writes its
fully resolved configuration next to its outputs, and every file is
written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import json

from .data import DataMatrix, PreprocessSpec, load_csv, preprocess, save_csv, transpose
from .evaluation import save_sweep_summary, sweep, sweep_to_csv
from .ghsom import (
    GhsomParams,
    GhsomTree,
    LeafPartition,
    dumps_stable,
    find_cluster,
    leaf_partition,
    run_ghsom,
    tree_from_json,
    tree_to_json,
)
from .sai import AttributeScore, identify_significant, identify_significant_each, save_scores_csv
from .synthetic import block_matrix, gaussian_blobs, planted_attributes
from .viz import FeatureSpec, render_distribution_map, render_feature_map

ENV_PREFIX = "GHSOMKIT_"


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"error in {stage}: {cause}")
        self.stage = stage
        self.cause = cause


def _stage(name: str, fn: Callable[[], Any]) -> Any:
    try:
        return fn()
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


# ---------------------------------------------------------------------------
# option schema

def _parse_bool(raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    t = str(raw).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(f"cannot parse '{raw}' as a boolean")


def _parse_int(raw: Any) -> int:
    # a config file's 2.5 or true is refused, not truncated to 2 or 1
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"cannot parse {raw!r} as an integer")
    return int(raw)


def _parse_float(raw: Any) -> float:
    # a config file's true is refused, not read as 1.0
    if isinstance(raw, bool):
        raise ValueError(f"cannot parse {raw!r} as a number")
    return float(raw)


def _parse_floats(raw: Any) -> list[float]:
    if isinstance(raw, list):
        return [_parse_float(v) for v in raw]
    vals = [float(v) for v in str(raw).split(",") if v.strip() != ""]
    if not vals:
        raise ValueError("expected a comma-separated list of numbers")
    return vals


@dataclass(frozen=True)
class Option:
    dest: str
    flag: str
    parse: Callable[[Any], Any]  # applied to every value but None
    default: Any
    help: str

    @property
    def env_key(self) -> str:
        return ENV_PREFIX + self.flag.lstrip("-").replace("-", "_").upper()


OPTIONS: list[Option] = [
    Option("input", "--input", str, None, "input CSV (header row, first column = sample id)"),
    Option("labels_column", "--labels-column", str, None, "name of the label column in the input CSV"),
    Option("out_dir", "--out-dir", str, "out", "output directory"),
    Option("seed", "--seed", _parse_int, 0, "seed for every random stream"),
    Option("transpose", "--transpose", _parse_bool, False, "transpose the matrix before anything else"),
    Option("log_normalize", "--log-normalize", _parse_bool, False, "row-sum normalize, scale, then log1p"),
    Option("scale_factor", "--scale-factor", _parse_float, 10_000.0, "scale factor for --log-normalize"),
    Option("top_k_variable", "--top-k-variable", _parse_int, None, "keep only the k highest-variance attributes"),
    Option("zscore", "--zscore", _parse_bool, False, "z-score each attribute (zero-variance ones become 0)"),
    Option("tau1", "--tau1", _parse_float, 0.1, "horizontal growth threshold in (0,1]"),
    Option("tau2", "--tau2", _parse_float, 0.1, "hierarchical expansion threshold in (0,1]"),
    Option("lam", "--lambda", _parse_int, 100, "training epochs per growth check"),
    Option("alpha0", "--alpha0", _parse_float, 0.5, "initial learning rate in (0,1]"),
    Option("sigma0", "--sigma0", _parse_float, None, "initial neighborhood radius (default: half the larger grid side)"),
    Option("max_depth", "--max-depth", _parse_int, 10, "maximum hierarchy depth"),
    Option("k", "--k", _parse_int, None, "how many attributes to rank (default: min(10, n_attributes))"),
    Option("feature", "--feature", str, "mean", "feature kind: mean|median|attribute|significance|label"),
    Option("attribute", "--attribute", str, None, "attribute name for --feature attribute"),
    Option("target_cluster", "--target-cluster", str, None, "target cluster for sai / --feature significance"),
    Option("drill_depth", "--drill-depth", _parse_int, None, "treemap nesting limit"),
    Option("tau1_list", "--tau1-list", _parse_floats, [0.2, 0.1, 0.05], "comma-separated tau1 sweep values"),
    Option("tau2_list", "--tau2-list", _parse_floats, [0.2, 0.1, 0.05], "comma-separated tau2 sweep values"),
    Option("pick", "--pick", str, None, "cluster whose members seed the second pipeline pass"),
    Option("gen_kind", "--gen-kind", str, "blobs", "synthetic dataset family: blobs|planted|blocks"),
    Option("n_clusters", "--n-clusters", _parse_int, 4, "clusters/groups for gen-synthetic"),
    Option("per_cluster", "--per-cluster", _parse_int, 50, "samples per cluster for gen-synthetic"),
    Option("dim", "--dim", _parse_int, 10, "attributes for gen-synthetic"),
    Option("spread", "--spread", _parse_float, 0.05, "within-cluster spread for gen-synthetic blobs"),
    Option("separation", "--separation", _parse_float, 5.0, "center separation for gen-synthetic blobs"),
]

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` does
    not change it, and building it takes a few hundred ``add_argument``
    calls."""
    parser = argparse.ArgumentParser(
        prog="ghsomkit",
        description="hierarchical SOM clustering, attribute ranking, and SVG maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="resolved config JSON from a previous run")
        for opt in OPTIONS:
            if opt.parse is _parse_bool:
                p.add_argument(opt.flag, dest=opt.dest, action="store_true",
                               default=None, help=opt.help)
            else:
                p.add_argument(opt.flag, dest=opt.dest, default=None,
                               metavar="V", help=opt.help)
    return parser


def resolve_config(args: argparse.Namespace, env: Mapping[str, str]) -> dict:
    """Merge flag > env > config file > default into a flat dict."""
    file_cfg: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    resolved: dict[str, Any] = {"command": args.command}
    for opt in OPTIONS:
        value = getattr(args, opt.dest, None)
        if value is None and opt.env_key in env:
            value = env[opt.env_key]
        if value is None and opt.dest in file_cfg:
            value = file_cfg[opt.dest]
        if value is None:
            value = opt.default
        try:
            resolved[opt.dest] = None if value is None else opt.parse(value)
        except ValueError as exc:
            raise ValueError(f"{opt.flag}: {exc}") from None
    return resolved


# ---------------------------------------------------------------------------
# shared plumbing

def _atomic_write(path: Path, writer: Callable[[Path], None]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def _write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda p: p.write_text(text, encoding="utf-8"))


def _write_config(cfg: dict, out_dir: Path) -> None:
    path = out_dir / f"config.{cfg['command']}.json"
    _stage("write", lambda: _write_text(path, dumps_stable(cfg) + "\n"))


def _save_partition_csv(partition: LeafPartition, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "cluster"])
        w.writerows(zip(partition.sample_ids, partition.clusters))


def _load_input(cfg: dict) -> DataMatrix:
    if not cfg["input"]:
        raise ValueError("--input is required")
    return load_csv(
        cfg["input"],
        has_labels=cfg["labels_column"] is not None,
        label_column=cfg["labels_column"],
    )


def _preprocess(cfg: dict, m: DataMatrix) -> DataMatrix:
    spec = PreprocessSpec(
        transpose=cfg["transpose"],
        log_normalize=cfg["log_normalize"],
        scale_factor=cfg["scale_factor"],
        top_k_variable=cfg["top_k_variable"],
        zscore=cfg["zscore"],
    )
    return preprocess(m, spec)


def _params(cfg: dict) -> GhsomParams:
    return GhsomParams(
        tau1=cfg["tau1"],
        tau2=cfg["tau2"],
        lam=cfg["lam"],
        alpha0=cfg["alpha0"],
        sigma0=cfg["sigma0"],
        max_depth=cfg["max_depth"],
        rng_seed=cfg["seed"],
    )


def _load_artifacts(out_dir: Path):
    """Read tree.json + matrix.csv written by a previous cluster run."""
    tree = tree_from_json((out_dir / "tree.json").read_text(encoding="utf-8"))
    matrix_path = out_dir / "matrix.csv"
    with open(matrix_path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
    known = set(tree.attribute_names)
    extra = [c for c in header[1:] if c not in known]
    label_column = extra[0] if len(extra) == 1 else None
    m = load_csv(matrix_path, has_labels=label_column is not None,
                 label_column=label_column)
    if m.sample_ids != tree.sample_ids:
        raise ValueError("matrix.csv and tree.json disagree on sample ids")
    return tree, m, leaf_partition(tree)


def _feature_spec(cfg: dict) -> FeatureSpec:
    return FeatureSpec(
        kind=cfg["feature"],
        attribute=cfg["attribute"],
        target_cluster=cfg["target_cluster"],
        k=cfg["k"],
    )


# ---------------------------------------------------------------------------
# stages: each runs one step of a command and writes that step's files

def _fit(cfg: dict, m: DataMatrix, out_dir: Path) -> tuple[GhsomTree, LeafPartition]:
    """Fit ``m``; write ``tree.json``, ``partition.csv`` and ``matrix.csv``."""
    tree = _stage("cluster", lambda: run_ghsom(m, _params(cfg)))
    partition = leaf_partition(tree)

    def write():
        _write_text(out_dir / "tree.json", tree_to_json(tree) + "\n")
        _atomic_write(out_dir / "partition.csv", lambda p: _save_partition_csv(partition, p))
        _atomic_write(out_dir / "matrix.csv", lambda p: save_csv(m, p))

    _stage("write", write)
    return tree, partition


def _rank(path: Path, rank: Callable[[], list[AttributeScore]]) -> list[AttributeScore]:
    """Run an attribute ranking and write its scores to ``path``."""
    scores = _stage("sai", rank)
    _stage("write", lambda: _atomic_write(path, lambda p: save_scores_csv(scores, p)))
    return scores


def _draw(which: str, out_dir: Path, tree: GhsomTree, partition: LeafPartition,
          m: DataMatrix, spec: FeatureSpec, drill_depth: int | None) -> Path:
    """Render the ``which`` ("feature" or "distribution") map; write
    ``<which>_map.svg`` and the geometry behind it, ``<which>_map.json``."""
    if which == "feature":
        render = functools.partial(render_feature_map, drill_depth=drill_depth)
    else:
        render = render_distribution_map
    svg, geometry = _stage("render", lambda: render(tree, partition, m, spec))
    path = out_dir / f"{which}_map.svg"

    def write():
        _write_text(path, svg)
        _write_text(path.with_suffix(".json"), dumps_stable(geometry) + "\n")

    _stage("write", write)
    return path


# ---------------------------------------------------------------------------
# commands

def cmd_cluster(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    m = _stage("load", lambda: _load_input(cfg))
    m = _stage("preprocess", lambda: _preprocess(cfg, m))
    tree, partition = _fit(cfg, m, out_dir)
    _write_config(cfg, out_dir)
    print(
        f"cluster: {len(partition.cluster_names())} leaves, depth {tree.depth()}, "
        f"{tree.total_units()} units -> {out_dir}"
    )
    return 0


def cmd_sweep(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    m = _stage("load", lambda: _load_input(cfg))
    m = _stage("preprocess", lambda: _preprocess(cfg, m))
    grid = _stage(
        "sweep",
        lambda: sweep(m, _params(cfg), cfg["tau1_list"], cfg["tau2_list"],
                      labels=m.labels),
    )

    def write():
        _atomic_write(out_dir / "sweep.csv", lambda p: sweep_to_csv(grid, p))
        _atomic_write(out_dir / "sweep_summary.json", lambda p: save_sweep_summary(grid, p))

    _stage("write", write)
    _write_config(cfg, out_dir)
    failed = sum(1 for c in grid.cells.values() if c.error)
    print(f"sweep: {len(grid.cells) - failed}/{len(grid.cells)} cells ok -> {out_dir}")
    return 0 if failed < len(grid.cells) else 3


def cmd_sai(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    tree, m, partition = _stage("read artifacts", lambda: _load_artifacts(out_dir))
    target = cfg["target_cluster"]
    leaves = partition.cluster_names()
    if target is None or target not in leaves:
        raise StageError(
            "sai",
            ValueError(
                f"--target-cluster must name a leaf; got {target!r}. "
                f"Valid leaves: {', '.join(leaves)}"
            ),
        )
    path = out_dir / f"sai_{target}.csv"
    scores = _rank(path, lambda: identify_significant(partition, m, target, cfg["k"]))
    _write_config(cfg, out_dir)
    print(f"sai: top {len(scores)} attributes of {target} -> {path}")
    return 0


def _cmd_render(cfg: dict, which: str) -> int:
    out_dir = Path(cfg["out_dir"])
    tree, m, partition = _stage("read artifacts", lambda: _load_artifacts(out_dir))
    path = _draw(which, out_dir, tree, partition, m, _feature_spec(cfg), cfg["drill_depth"])
    _write_config(cfg, out_dir)
    print(f"render: {path}")
    return 0


def cmd_pipeline_crispr(cfg: dict) -> int:
    """Pick a cluster of a ``cluster`` run, transpose its members, then fit
    them, rank every leaf and draw both maps into ``stage2_<pick>/``."""
    out_dir = Path(cfg["out_dir"])
    tree, m, _ = _stage("read artifacts", lambda: _load_artifacts(out_dir))
    if not cfg["pick"]:
        raise StageError("pick", ValueError("--pick is required"))
    members = _stage("pick", lambda: find_cluster(tree, cfg["pick"]))
    m2 = _stage("transpose", lambda: transpose(DataMatrix(
        m.values[members], [m.sample_ids[i] for i in members], m.attribute_names)))
    stage_dir = out_dir / f"stage2_{cfg['pick']}"
    stage_dir.mkdir(parents=True, exist_ok=True)
    tree2, partition2 = _fit(cfg, m2, stage_dir)
    # one leaf has no other cluster to be ranked against
    ranked = len(partition2.cluster_names()) > 1
    _rank(stage_dir / "sai.csv",
          lambda: identify_significant_each(partition2, m2, k=cfg["k"]) if ranked else [])
    for which in ("feature", "distribution"):
        _draw(which, stage_dir, tree2, partition2, m2, FeatureSpec(kind="mean"),
              cfg["drill_depth"])
    _write_config(cfg, out_dir)
    print(
        f"pipeline-crispr: {cfg['pick']} ({len(members)} members) -> "
        f"{m2.n_samples}x{m2.n_attributes} second pass, "
        f"{len(partition2.cluster_names())} leaves -> {stage_dir}"
    )
    return 0


def cmd_gen_synthetic(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    def make():
        kind = cfg["gen_kind"]
        if kind == "blobs":
            return gaussian_blobs(
                n_clusters=cfg["n_clusters"], per_cluster=cfg["per_cluster"],
                dim=cfg["dim"], spread=cfg["spread"],
                separation=cfg["separation"], seed=cfg["seed"],
            )
        if kind == "planted":
            m, _ = planted_attributes(
                n_clusters=cfg["n_clusters"], per_cluster=cfg["per_cluster"],
                n_attributes=cfg["dim"], seed=cfg["seed"],
            )
            return m
        if kind == "blocks":
            return block_matrix(
                n_groups=cfg["n_clusters"], per_group=cfg["per_cluster"],
                dim=cfg["dim"], seed=cfg["seed"],
            )
        raise ValueError(f"unknown gen-kind '{kind}'; use blobs, planted, or blocks")

    m = _stage("generate", make)
    path = out_dir / "synthetic.csv"
    _stage("write", lambda: _atomic_write(path, lambda p: save_csv(m, p)))
    _write_config(cfg, out_dir)
    print(f"gen-synthetic: {m.n_samples}x{m.n_attributes} ({cfg['gen_kind']}) -> {path}")
    return 0


COMMANDS: dict[str, Callable[[dict], int]] = {
    "cluster": cmd_cluster,
    "sweep": cmd_sweep,
    "sai": cmd_sai,
    "render-feature-map": lambda cfg: _cmd_render(cfg, "feature"),
    "render-distribution-map": lambda cfg: _cmd_render(cfg, "distribution"),
    "pipeline-crispr": cmd_pipeline_crispr,
    "gen-synthetic": cmd_gen_synthetic,
}


def main(argv: list[str] | None = None, env: Mapping[str, str] | None = None) -> int:
    env = os.environ if env is None else env
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args, env)
        return COMMANDS[cfg["command"]](cfg)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
