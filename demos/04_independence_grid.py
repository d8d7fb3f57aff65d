"""Run a small resumable grid and render its report bundle.

One goal per target: refute it while assuming lattice distributivity
only.  Sizes run upward per goal; once a countermodel appears the larger
sizes of that goal are cancelled but still recorded, and rerunning the
grid replays the result file instead of solving anything again.  The grid
lives in a temporary directory removed at exit, and the demo exits 1 when
either run reports an error or a violation.
"""

import sys
import tempfile
from pathlib import Path

from resbinar import GridConfig, build_grid, load_results, report_bundle, run_grid

with tempfile.TemporaryDirectory(prefix="resbinar-grid-") as tmp:
    workdir = Path(tmp)
    config = GridConfig(
        targets=("D3", "D6"),
        policy="explicit",
        subsets=(frozenset(),),
        ld="assume",
        min_size=2,
        max_size=5,
        workers=2,
        solver="builtin",
        out_dir=workdir,
    )
    tasks = build_grid(config)
    print(f"grid of {len(tasks)} tasks -> {workdir}")

    outcome = run_grid(tasks, config)
    for result in outcome.results:
        note = f" ({result.reason})" if result.reason else ""
        print(f"  {result.task.describe():42s} {result.status}{note}")
    print(f"ok={outcome.ok}, {len(load_results(workdir))} records on disk")

    again = run_grid(tasks, config)
    print(f"resume run solved nothing new: {len(load_results(workdir))} records")

    report_dir = workdir / "report"
    written = report_bundle(outcome.results, report_dir)
    print(f"report bundle: {len(written)} files under {report_dir}")
    print((report_dir / "summary.tex").read_text())

for error in outcome.errors + again.errors:
    print(f"ERROR: {error}", file=sys.stderr)
sys.exit(0 if outcome.ok and again.ok else 1)
