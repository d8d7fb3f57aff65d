"""Smoke runs of the benchmark in perfbench/, which is frozen: a change that
breaks a name or a behaviour the benchmark relies on fails here, not only
when the benchmark is next run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep-n3", "grid-ld"])
def test_benchmark_workload_runs_and_checks_its_answers(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
