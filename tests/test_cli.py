import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from ghsomkit import data
from ghsomkit.cli import COMMANDS, build_parser, main

OPTION_KEYS = {
    "input", "labels_column", "out_dir", "seed", "transpose",
    "log_normalize", "scale_factor", "top_k_variable", "zscore", "tau1",
    "tau2", "lam", "alpha0", "sigma0", "max_depth", "k", "feature",
    "attribute", "target_cluster", "drill_depth", "tau1_list", "tau2_list",
    "pick", "gen_kind", "n_clusters", "per_cluster", "dim", "spread",
    "separation",
}


def run(argv, env=None):
    return main(argv, env=env or {})


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run([
        "gen-synthetic", "--out-dir", str(out), "--seed", "5",
        "--n-clusters", "3", "--per-cluster", "15", "--dim", "4",
        "--separation", "6.0", "--spread", "0.1",
    ]) == 0
    return out / "synthetic.csv"


@pytest.fixture()
def clustered(tmp_path, dataset):
    out = tmp_path / "run"
    assert run([
        "cluster", "--input", str(dataset), "--labels-column", "blob",
        "--out-dir", str(out), "--seed", "5", "--lambda", "10",
        "--tau1", "0.15", "--tau2", "0.15",
    ]) == 0
    return out


def _first_leaf(out_dir):
    with open(out_dir / "partition.csv", newline="") as fh:
        return next(csv.DictReader(fh))["cluster"]


def test_gen_synthetic_writes_labeled_csv(dataset):
    with open(dataset, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 45
    assert "blob" in rows[0]
    assert rows[0]["id"].startswith("s")


@pytest.mark.parametrize("kind", ["planted", "blocks"])
def test_gen_synthetic_other_kinds(tmp_path, kind):
    out = tmp_path / kind
    assert run(["gen-synthetic", "--out-dir", str(out), "--gen-kind", kind]) == 0
    assert (out / "synthetic.csv").exists()


def test_gen_synthetic_unknown_kind(tmp_path, capsys):
    assert run(["gen-synthetic", "--out-dir", str(tmp_path), "--gen-kind", "fractal"]) == 2
    assert "unknown gen-kind 'fractal'" in capsys.readouterr().err


def test_cluster_outputs(clustered):
    for name in ("tree.json", "partition.csv", "matrix.csv", "config.cluster.json"):
        assert (clustered / name).exists(), name
    cfg = json.loads((clustered / "config.cluster.json").read_text())
    assert cfg["command"] == "cluster"
    # resolved config is fully materialized
    assert OPTION_KEYS <= set(cfg)
    assert cfg["tau1"] == 0.15
    assert cfg["lam"] == 10
    tree = json.loads((clustered / "tree.json").read_text())
    assert tree["format"] == "ghsom-tree/1"


def test_cluster_missing_input(tmp_path, capsys):
    assert run(["cluster", "--input", str(tmp_path / "nope.csv"),
                "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error in load" in err
    assert "nope.csv" in err


def test_cluster_requires_input(tmp_path, capsys):
    assert run(["cluster", "--out-dir", str(tmp_path / "o")]) == 2
    assert "--input is required" in capsys.readouterr().err


def test_env_overrides_default_flag_overrides_env(tmp_path, dataset):
    out1 = tmp_path / "env_only"
    env = {"GHSOMKIT_TAU1": "0.5", "GHSOMKIT_LAMBDA": "7", "GHSOMKIT_ZSCORE": "true"}
    assert run(["cluster", "--input", str(dataset), "--labels-column", "blob",
                "--out-dir", str(out1), "--seed", "5"], env=env) == 0
    cfg = json.loads((out1 / "config.cluster.json").read_text())
    assert cfg["tau1"] == 0.5
    assert cfg["lam"] == 7
    assert cfg["zscore"] is True

    out2 = tmp_path / "flag_beats_env"
    assert run(["cluster", "--input", str(dataset), "--labels-column", "blob",
                "--out-dir", str(out2), "--seed", "5", "--tau1", "0.3"], env=env) == 0
    cfg2 = json.loads((out2 / "config.cluster.json").read_text())
    assert cfg2["tau1"] == 0.3
    assert cfg2["lam"] == 7


def _help(command):
    with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit):
        main([command, "--help"], env={})
    return out.getvalue()


def test_help_of_every_command_is_that_of_a_fresh_parser(tmp_path, dataset):
    # the parser is built once per process and reused by every main()
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()
    want = {}
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit):
            fresh.parse_args([command, "--help"])
        want[command] = out.getvalue()
        assert want[command].startswith(f"usage: ghsomkit {command} ")
        assert "--tau1 V" in want[command]
    assert {command: _help(command) for command in COMMANDS} == want
    assert run(["cluster", "--input", str(dataset), "--labels-column", "blob",
                "--out-dir", str(tmp_path / "o"), "--zscore", "--tau1", "0.3"]) == 0
    assert {command: _help(command) for command in COMMANDS} == want


def test_two_main_calls_in_one_process_keep_their_own_flags(tmp_path, dataset):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run(["cluster", "--input", str(dataset), "--labels-column", "blob",
                "--out-dir", str(out1), "--seed", "5", "--tau1", "0.3", "--zscore"]) == 0
    assert run(["sai", "--out-dir", str(out1), "--target-cluster", _first_leaf(out1),
                "--k", "2"]) == 0
    assert run(["cluster", "--input", str(dataset), "--labels-column", "blob",
                "--out-dir", str(out2), "--seed", "6"]) == 0
    first = json.loads((out1 / "config.cluster.json").read_text())
    sai = json.loads((out1 / "config.sai.json").read_text())
    second = json.loads((out2 / "config.cluster.json").read_text())
    assert (first["tau1"], first["zscore"], first["seed"], first["k"]) == (0.3, True, 5, None)
    assert (sai["tau1"], sai["zscore"], sai["seed"], sai["k"]) == (0.1, False, 0, 2)
    assert (sai["input"], sai["target_cluster"]) == (None, _first_leaf(out1))
    assert (second["tau1"], second["zscore"], second["seed"], second["k"]) == (0.1, False, 6, None)


def test_bad_env_value_is_reported(tmp_path, dataset, capsys):
    assert run(["cluster", "--input", str(dataset), "--out-dir", str(tmp_path / "o")],
               env={"GHSOMKIT_ZSCORE": "maybe"}) == 2
    assert "cannot parse 'maybe' as a boolean" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("lam", 2.5), ("max_depth", True), ("seed", 1.5), ("k", False),
])
def test_config_integer_options_reject_non_integers(tmp_path, clustered, capsys, key, value):
    cfg = json.loads((clustered / "config.cluster.json").read_text())
    cfg[key] = value
    config = tmp_path / "fractional.json"
    config.write_text(json.dumps(cfg))
    out2 = tmp_path / "rejected"
    assert run(["cluster", "--config", str(config), "--out-dir", str(out2)]) == 2
    assert f"cannot parse {value!r} as an integer" in capsys.readouterr().err
    assert not out2.exists()


@pytest.mark.parametrize("command,key,value,flag,bad", [
    ("cluster", "tau1", True, "--tau1", True),
    ("cluster", "alpha0", False, "--alpha0", False),
    ("sweep", "tau1_list", [True], "--tau1-list", True),
    ("sweep", "tau2_list", [0.2, False], "--tau2-list", False),
])
def test_config_float_options_reject_booleans(tmp_path, clustered, capsys, command, key,
                                              value, flag, bad):
    # true in a config file used to fit (or sweep) at 1.0 and record 1.0
    cfg = json.loads((clustered / "config.cluster.json").read_text())
    cfg[key] = value
    config = tmp_path / "boolean.json"
    config.write_text(json.dumps(cfg))
    out2 = tmp_path / "rejected"
    assert run([command, "--config", str(config), "--out-dir", str(out2)]) == 2
    assert f"{flag}: cannot parse {bad!r} as a number" in capsys.readouterr().err
    assert not out2.exists()


def test_config_integral_float_is_an_integer(tmp_path, clustered):
    cfg = json.loads((clustered / "config.cluster.json").read_text())
    cfg["lam"] = float(cfg["lam"])
    config = tmp_path / "integral.json"
    config.write_text(json.dumps(cfg))
    out2 = tmp_path / "integral"
    assert run(["cluster", "--config", str(config), "--out-dir", str(out2)]) == 0
    assert json.loads((out2 / "config.cluster.json").read_text())["lam"] == 10
    for name in ("tree.json", "partition.csv"):
        assert (out2 / name).read_bytes() == (clustered / name).read_bytes(), name


def test_config_replay_reproduces_bitwise(tmp_path, dataset, clustered):
    out2 = tmp_path / "replay"
    assert run(["cluster", "--config", str(clustered / "config.cluster.json"),
                "--out-dir", str(out2)]) == 0
    for name in ("tree.json", "partition.csv"):
        assert (out2 / name).read_bytes() == (clustered / name).read_bytes(), name


def test_config_with_removed_threads_key_replays(tmp_path, clustered):
    # configs written before --threads was removed still hold the key
    cfg = json.loads((clustered / "config.cluster.json").read_text())
    cfg["threads"] = 4
    old_config = tmp_path / "old_config.json"
    old_config.write_text(json.dumps(cfg))
    out2 = tmp_path / "replay_old"
    assert run(["cluster", "--config", str(old_config), "--out-dir", str(out2)]) == 0
    for name in ("tree.json", "partition.csv"):
        assert (out2 / name).read_bytes() == (clustered / name).read_bytes(), name
    assert "threads" not in json.loads((out2 / "config.cluster.json").read_text())


@pytest.mark.parametrize("terminator,quoting", [
    ("\n", csv.QUOTE_MINIMAL),  # LF instead of save_csv's CRLF
    ("\r\n", csv.QUOTE_ALL),  # quoted ids and cells
], ids=["lf", "crlf-quoted"])
def test_cluster_same_outputs_from_rewritten_input(tmp_path, dataset, clustered,
                                                   terminator, quoting):
    # the generated file takes load_csv's vectorized pass and the quoted
    # rewrite its per-cell fallback; the fit must not tell them apart
    with open(dataset, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rewritten = tmp_path / "rewritten.csv"
    with open(rewritten, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=terminator, quoting=quoting).writerows(rows)
    assert rewritten.read_bytes() != dataset.read_bytes()
    assert data._load_numeric_block(dataset, True, "blob") is not None
    vectorized = data._load_numeric_block(rewritten, True, "blob") is not None
    assert vectorized == (quoting == csv.QUOTE_MINIMAL)
    out2 = tmp_path / "from_rewritten"
    assert run([
        "cluster", "--input", str(rewritten), "--labels-column", "blob",
        "--out-dir", str(out2), "--seed", "5", "--lambda", "10",
        "--tau1", "0.15", "--tau2", "0.15",
    ]) == 0
    for name in ("tree.json", "partition.csv", "matrix.csv"):
        assert (out2 / name).read_bytes() == (clustered / name).read_bytes(), name


def test_sai_command(clustered, capsys):
    leaf = _first_leaf(clustered)
    assert run(["sai", "--out-dir", str(clustered), "--target-cluster", leaf]) == 0
    path = clustered / f"sai_{leaf}.csv"
    assert path.exists()
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and rows[0]["cluster"] == leaf
    assert [r["rank"] for r in rows] == [str(i) for i in range(1, len(rows) + 1)]
    assert (clustered / "config.sai.json").exists()


def test_sai_rejects_unknown_cluster(clustered, capsys):
    assert run(["sai", "--out-dir", str(clustered), "--target-cluster", "9x9"]) == 2
    err = capsys.readouterr().err
    assert "must name a leaf" in err
    assert _first_leaf(clustered) in err  # the valid leaves are listed


def test_render_commands(clustered):
    assert run(["render-feature-map", "--out-dir", str(clustered)]) == 0
    assert run(["render-distribution-map", "--out-dir", str(clustered),
                "--feature", "label"]) == 0
    svg = (clustered / "feature_map.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    geo = json.loads((clustered / "feature_map.json").read_text())
    assert geo["map"] == "feature"
    assert geo["nodes"]
    geo_d = json.loads((clustered / "distribution_map.json").read_text())
    assert geo_d["map"] == "distribution"
    assert all("opacity" in n for n in geo_d["nodes"])


def test_render_rejects_bad_feature(clustered, capsys):
    assert run(["render-feature-map", "--out-dir", str(clustered),
                "--feature", "sparkles"]) == 2
    assert "unknown feature kind" in capsys.readouterr().err


def test_renders_are_deterministic(clustered):
    assert run(["render-feature-map", "--out-dir", str(clustered)]) == 0
    first = (clustered / "feature_map.svg").read_bytes()
    assert run(["render-feature-map", "--out-dir", str(clustered)]) == 0
    assert (clustered / "feature_map.svg").read_bytes() == first


def test_sweep_command(tmp_path, dataset):
    out = tmp_path / "sweep"
    assert run(["sweep", "--input", str(dataset), "--labels-column", "blob",
                "--out-dir", str(out), "--seed", "5", "--lambda", "8",
                "--tau1-list", "0.3,0.15", "--tau2-list", "0.3"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == {"tau1", "tau2", "ch", "ari", "leaf_count", "depth",
                            "total_units", "error"}
    assert all(r["error"] == "" for r in rows)
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["n_cells"] == 2
    assert summary["best_by_ch"] is not None


def test_pipeline_crispr(tmp_path, clustered):
    leaf = _first_leaf(clustered)
    assert run(["pipeline-crispr", "--out-dir", str(clustered), "--pick", leaf,
                "--seed", "5", "--lambda", "10", "--tau1", "0.5", "--tau2", "0.5"]) == 0
    stage = clustered / f"stage2_{leaf}"
    for name in ("tree.json", "partition.csv", "matrix.csv", "sai.csv",
                 "feature_map.svg", "distribution_map.svg"):
        assert (stage / name).exists(), name
    # second pass columns are the picked cluster's sample ids
    with open(stage / "matrix.csv", newline="") as fh:
        header = next(csv.reader(fh))
    with open(clustered / "partition.csv", newline="") as fh:
        picked = [r["sample_id"] for r in csv.DictReader(fh) if r["cluster"] == leaf]
    assert header[1:] == picked


def test_pipeline_requires_pick(clustered, capsys):
    assert run(["pipeline-crispr", "--out-dir", str(clustered)]) == 2
    assert "--pick is required" in capsys.readouterr().err


def test_no_tmp_files_left_behind(clustered):
    assert not list(clustered.glob("*.tmp"))


def _readme_commands():
    """The argument lists of the README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```bash\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "ghsomkit"
        assert run(argv[1:]) == 0, argv
    for path in ("data/synthetic.csv", "run/tree.json", "run/partition.csv",
                 "run/sai_0x0.csv", "run/feature_map.svg", "run/sweep/sweep.csv"):
        assert (tmp_path / path).exists(), path
