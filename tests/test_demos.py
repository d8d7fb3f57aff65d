"""Each demo script runs to completion against the package in `src/`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# These hard-code the pysat engine.  Without it 04 still exits 0, with
# every task an ERROR, so running it then would check nothing.
NEEDS_PYSAT = {"02_search_countermodel.py", "04_independence_grid.py"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    if demo.name in NEEDS_PYSAT:
        pytest.importorskip("pysat")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
