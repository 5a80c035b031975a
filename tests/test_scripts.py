"""The README's experiment scripts run to completion and write their files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghsomkit

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, outputs", [
    ("blob_demo.py", ["tree.json", "feature_map.svg", "distribution_map.svg"]),
    ("sweep_demo.py", ["sweep.csv"]),
])
def test_experiment_script_runs(script, outputs, tmp_path):
    path = [str(Path(ghsomkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert " error: " not in done.stdout
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0
