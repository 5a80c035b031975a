"""The README's experiment scripts run to completion and write their files,
and its Python examples run."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ghsomkit

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
# the README's ```python blocks, in order; a block may use the names the
# blocks before it define, as in one interpreter session
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           flags=re.M | re.S)
assert README_BLOCKS, "README.md has no python blocks"


def _env():
    """The environment with the package on ``PYTHONPATH``."""
    path = [str(Path(ghsomkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.mark.parametrize("script, outputs", [
    ("blob_demo.py", ["tree.json", "feature_map.svg", "distribution_map.svg"]),
    ("sweep_demo.py", ["sweep.csv"]),
])
def test_experiment_script_runs(script, outputs, tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert " error: " not in done.stdout
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_python_block_runs(block, tmp_path):
    code = "".join(README_BLOCKS[:block + 1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
