"""Benchmark of the resbinar pipeline on the bundled DPLL, offline.

    python3 perfbench/run.py --workload sweep-n3 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from its `src/`.
Each run prints its metrics one per line, then, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, rescaled to a reference host speed, with
--trace 1 the per-layer ones, as measured.  A run
whose answers fail a check, or that settles no task, exits 1; a checkout
without the package exits 2.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 9
CALIBRATION_REPEATS = 3
CALIBRATION_STEPS = 1_000_000
PERCENTILES = (50, 90, 99, 99.9)


def import_package():
    """Import resbinar from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import resbinar
    except ImportError as exc:
        print(f"cannot import resbinar from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(resbinar.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"resbinar imported from {resbinar.__file__}, not from this checkout",
              file=sys.stderr)
        sys.exit(2)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of PERCENTILES with at least ten
    samples beyond it, or the maximum when no percentile has that many."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (100.0, ordered[-1])
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def probe_setup(workload: str, seed: int, count: int) -> list[dict]:
    """Set-up times, each in a fresh interpreter: imports plus the
    workload's own set-up (oracle pool, grid build); see setup_probe.py."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1]))
    return times


def end_to_end(name, seed, seconds, workdir) -> dict:
    """The timings are reported at the reference host speed: each client's
    latencies and rate are rescaled by its own host-speed samples.  The
    notes give them as measured, too."""
    from workloads import (CALIB_REF_S, WORKLOADS, host_normalised, merge,
                           run_clients)

    setups = probe_setup(name, seed, SETUP_PROBES)
    clients = run_clients(name, seed, seconds, workdir)
    tally = merge(tally for tally, _ in clients)
    if not tally.latencies:
        return {"tally": tally, "metrics": {}, "notes": []}
    normalised = [host_normalised(tally, wall) for tally, wall in clients]
    scaled = merge(tally for tally, _ in normalised)
    p, tail_s = tail(scaled.latencies)
    metrics = {
        "tasks_per_s": (sum(rate for _, rate in normalised), "1/s"),
        "task_p50_ms": (statistics.median(scaled.latencies) * 1e3, "ms"),
        "task_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(t["setup_s"] for t in setups), "s"),
    }
    _, raw_tail_s = tail(tally.latencies)
    raw_rate = sum(tally.attempted / wall for tally, wall in clients)
    notes = [
        f"task_tail_ms is p{p:g} of {len(tally.latencies)} task latencies",
        f"{WORKLOADS[name].clients} closed-loop client(s)",
        f"host speed: {len(tally.calib_s)} samples, mean "
        f"{statistics.fmean(tally.calib_s) * 1e3:.3f} ms (reference "
        f"{CALIB_REF_S * 1e3:g} ms)",
        f"as measured: tasks_per_s {raw_rate:.6g}, task_p50_ms "
        f"{statistics.median(tally.latencies) * 1e3:.6g}, task_tail_ms "
        f"{raw_tail_s * 1e3:.6g}, setup_s "
        f"{statistics.median(t['raw_s'] for t in setups):.6g}",
    ]
    if tally.resume_s:
        notes.append(f"resume_s {statistics.median(tally.resume_s):.6f} s "
                     f"(median of {len(tally.resume_s)} resume passes)")
    return {"tally": tally, "metrics": metrics, "notes": notes}


def traced(name, seed, workdir) -> dict:
    """Run each of the workload's fixed trace units twice, untraced and
    traced, in this one process, so the difference is the tracing overhead;
    then take the encoder's component sizes at n = CENSUS_SIZE."""
    from tracing import NullTracer, Tracer
    from workloads import (CENSUS_SIZE, GRID_WORKERS, WORKLOADS, Tally,
                           component_sizes, run_unit)

    setup_tr = Tracer()
    workload = WORKLOADS[name](seed, setup_tr, workdir)
    null, tr = NullTracer(), Tracer()
    reference, tally = Tally(), Tally()
    untraced_s = traced_s = 0.0
    units = workload.units()
    for k in range(workload.trace_units):
        unit = next(units)
        tr.task = k
        # alternate which pass runs first, so warm-up does not favour one side
        for tracing in (False, True) if k % 2 == 0 else (True, False):
            start = perf_counter()
            if tracing:
                tr.call("bench.unit", run_unit, workload, unit, tr, tally)
                traced_s += perf_counter() - start
            else:
                run_unit(workload, unit, null, reference)
                untraced_s += perf_counter() - start
    tally.wrong += reference.wrong
    tally.failed += reference.failed
    trace_file = OUT / "traces" / f"{name}-seed{seed}.jsonl"
    setup_tr.write(trace_file.with_suffix(".setup.jsonl"))
    tr.write(trace_file)

    grid_s = tr.total("orchestrator.run_grid")
    busy_s = tr.counts["orchestrator.busy_s"]
    solve_s = tr.total("solver.solve_builtin")
    props = tr.counts["solver.propagations"]
    tasks = max(tally.attempted, 1)
    metrics = {
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    self_times = tr.self_times()
    for layer, seconds in self_times.items():
        metrics[f"self_s.{layer}"] = (seconds, "s")
    metrics.update({
        "solver.solve_s": (solve_s, "s"),
        "solver.decisions": (tr.counts["solver.decisions"], "count"),
        "solver.propagations": (props, "count"),
        "solver.props_per_s": (props / solve_s if solve_s else 0.0, "1/s"),
        "encoder.encode_s": (tr.total("encoder.encode_search"), "s"),
        "encoder.vars": (tr.counts["encoder.vars"], "count"),
        "encoder.clauses": (tr.counts["encoder.clauses"], "count"),
        "encoder.dimacs_s": (tr.total("encoder.write_dimacs_file"), "s"),
        "encoder.dimacs_mb": (tr.counts["encoder.dimacs_bytes"] / 2**20, "MB"),
        "encoder.decode_s": (tr.total("encoder.decode_model"), "s"),
        "algebra.verify_s": (tr.layer_total("algebra"), "s"),
        "oracle.search_s": (tr.total("oracle.oracle_search"), "s"),
        "oracle.pool_s": (setup_tr.total("oracle.count_models"), "s"),
        "orchestrator.grid_s": (grid_s, "s"),
        "orchestrator.busy_s": (busy_s, "s"),
        "orchestrator.overhead_ms_per_task": (
            (grid_s * GRID_WORKERS - busy_s) / tasks * 1e3 if grid_s else 0.0, "ms"),
        "orchestrator.load_s": (tr.total("orchestrator.load_results"), "s"),
        "orchestrator.records": (tr.counts["orchestrator.records"], "count"),
        "orchestrator.resume_s": (tr.total("orchestrator.run_grid:resume"), "s"),
        "reporting.bundle_s": (tr.total("reporting.report_bundle"), "s"),
        "reporting.files": (tr.counts["reporting.files"], "count"),
    })
    for part, (nvars, nclauses) in component_sizes(CENSUS_SIZE).items():
        metrics[f"encoder.vars.{part}"] = (nvars, "count")
        metrics[f"encoder.clauses.{part}"] = (nclauses, "count")
    notes = [
        f"{tally.attempted} tasks in {workload.trace_units} traced units, "
        f"{len(tr.spans)} spans, written to {trace_file.relative_to(ROOT)}",
        f"self times sum to {sum(self_times.values()):.3f} s "
        f"(traced_s {traced_s:.3f} s = untraced_s + overhead_s)",
        f"component sizes at n = {CENSUS_SIZE}",
    ]
    return {"tally": tally, "metrics": metrics, "notes": notes}


def run_one(args) -> int:
    import_package()
    from workloads import calibrate
    workdir = OUT / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    calib = [calibrate(CALIBRATION_STEPS) for _ in range(CALIBRATION_REPEATS)]
    try:
        if args.trace:
            report = traced(args.workload, args.seed, workdir)
        else:
            report = end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_after = [calibrate(CALIBRATION_STEPS) for _ in range(CALIBRATION_REPEATS)]
    tally, metrics = report["tally"], report["metrics"]
    calib_s = statistics.median(calib + calib_after)
    if args.trace:
        metrics["host.calib_s"] = (calib_s, "s")

    attempted = max(tally.attempted, 1)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in report["notes"]:
        print(f"# {line}")
    print(f"# host.calib_s {calib_s:.4f} s (before {statistics.median(calib):.4f}, "
          f"after {statistics.median(calib_after):.4f})")
    print(f"wrong_verdicts {len(tally.wrong)} count")
    print(f"failed_frac {tally.failed / attempted:.6f} ratio")
    for message in tally.wrong[:20]:
        print(f"WRONG {message}")
    correct = not tally.wrong and bool(metrics)
    if correct:
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()} if correct else {},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    names = ("sweep-n3", "encode-n7", "grid-ld")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every process started is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload != "all":
        return run_one(args)
    # each workload in its own process, so that peak RSS stays per workload
    failures = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        )
        failures += proc.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
