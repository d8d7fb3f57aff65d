"""The benchmark's workloads: seeded inputs, the work per unit, its checks.

Each workload is built from a seed (its set-up), yields an endless seeded
sequence of units, and runs one unit at a time, recording per-task
latencies and every failed or wrong answer in a Tally.  Calls into the
package go through a tracer, so the traced run can put a span around each.
The untraced runs drive each workload from its client processes
(client.py), or from the main process when it has one client, and rescale
the timings to a reference host speed from host-speed samples taken as
they go.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, thread_time

from resbinar import (
    DISTRIBUTIVITY_NAMES,
    IDENTITY_NAMES,
    SAT,
    UNKNOWN,
    UNSAT,
    EncodeOptions,
    GridConfig,
    SearchTask,
    build_grid,
    builtin,
    check_identity,
    check_lattice,
    check_residuation,
    count_models,
    decode_model,
    encode_search,
    implication_closure,
    load_results,
    oracle_search,
    report_bundle,
    run_grid,
    solve_builtin,
    write_dimacs_file,
)
from resbinar.oracle import EXHAUSTIVE_BOUND

from tracing import NullTracer

# The cores of the 2-vCPU machine the benchmark was tuned on.  Host noise on
# its two vCPUs is uncorrelated, so work spread over both reads steadier.
CORES = 2
GRID_WORKERS = CORES
GRID_SIZES = (2, 4)
CENSUS_SIZE = 7  # the smallest witness size of criterion 3
# Host-speed samples: a fixed pure-Python loop of CALIB_STEPS steps, timed
# between units at most every CALIB_EVERY_S seconds.  Timings are reported
# at the host speed at which one sample takes CALIB_REF_S seconds, taking
# the program's times to scale as the samples' to the power HOST_ELASTICITY:
# fitted over runs on the 2-vCPU machine the benchmark was tuned on, where
# it came out between 1.1 and 1.75 (see README.md).
CALIB_STEPS = 100_000
CALIB_EVERY_S = 0.5
CALIB_REF_S = 0.010
HOST_ELASTICITY = 1.25


def to_reference(samples: list[float]) -> float:
    """The factor that takes a time measured while the host ran at the
    speed these samples saw to the reference speed."""
    return (CALIB_REF_S / statistics.fmean(samples)) ** HOST_ELASTICITY


def calibrate(steps: int = CALIB_STEPS) -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.
    Timed in the thread's CPU time, so waiting for a core does not count."""
    start = thread_time()
    acc = 0
    for i in range(steps):
        acc += i * i % 7
    return thread_time() - start


@dataclass
class Tally:
    """What the measured units left behind."""

    latencies: list[float] = field(default_factory=list)  # seconds per task
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    resume_s: list[float] = field(default_factory=list)
    calib_s: list[float] = field(default_factory=list)  # host-speed samples
    # for each latency, the first and last index of the samples around it
    windows: list[tuple[int, int]] = field(default_factory=list)


def verify(task: SearchTask, model, tr) -> str | None:
    """None when the model answers the task, else what is wrong with it."""
    if model.size != task.size:
        return f"size {model.size} != {task.size}"
    if not tr.call("algebra.check_lattice", check_lattice, model).passed:
        return "lattice axioms fail"
    if not tr.call("algebra.check_residuation", check_residuation, model).passed:
        return "residuation fails"
    for name in sorted(task.assume):
        ident = tr.call("terms.builtin", builtin, name)
        if tr.call("algebra.check_identity", check_identity, model, ident) is not None:
            return f"assumed {name} fails"
    if task.refute is not None:
        ident = tr.call("terms.builtin", builtin, task.refute)
        if tr.call("algebra.check_identity", check_identity, model, ident) is None:
            return f"refuted {task.refute} holds"
    return None


def stratified_order(items: list, stratum, rng: random.Random) -> list:
    """A seeded shuffle in which every prefix draws from each stratum in
    proportion to the stratum's size, so short runs see a fixed mix."""
    groups = defaultdict(list)
    for item in items:
        groups[stratum(item)].append(item)
    keyed = []
    for key in sorted(groups, key=repr):
        members = groups[key]
        rng.shuffle(members)
        offset = rng.random()
        for i, item in enumerate(members):
            keyed.append(((i + offset) / len(members), rng.random(), item))
    keyed.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in keyed]


def component_sizes(n: int) -> dict[str, tuple[int, int]]:
    """(vars, clauses) each encoder component adds at size n, by differencing
    encodings against the bare base (no symmetry breaking).  Components that
    share auxiliary groups overlap, so the parts can exceed a whole task."""

    def size(task, symmetry=False):
        cnf = encode_search(task, EncodeOptions(symmetry=symmetry))
        return cnf.num_vars, cnf.clause_count

    base = size(SearchTask(n))
    parts = {"base": base}

    def add(name, whole):
        parts[name] = (whole[0] - base[0], whole[1] - base[1])

    add("symmetry", size(SearchTask(n), symmetry=True))
    for name in IDENTITY_NAMES:
        add(name, size(SearchTask.make(n, assume=[name])))
    for name in DISTRIBUTIVITY_NAMES:
        add(f"refute_{name}", size(SearchTask.make(n, refute=name)))
    return parts


def _cycle(order_of, rng: random.Random):
    """Endless sequence of units: a fresh seeded order per pass."""
    while True:
        yield from order_of(rng)


class SweepN3:
    """Criterion-1/6 shape: each n = 3 task, with and without symmetry
    breaking, is encoded, solved by the bundled DPLL, decoded, verified and
    compared with the enumeration oracle."""

    name = "sweep-n3"
    size = 3
    clients = CORES
    sample_during = False
    trace_units = 64

    def __init__(self, seed: int, tr, workdir: Path):
        self.rng = random.Random(seed)
        tr.call("oracle.count_models", count_models, self.size)
        self.tasks = []
        for target in DISTRIBUTIVITY_NAMES + (None,):
            others = [d for d in DISTRIBUTIVITY_NAMES if d != target]
            for r in range(len(others) + 1):
                for subset in itertools.combinations(others, r):
                    for ld in ((), ("LD",)):
                        self.tasks.append(SearchTask.make(
                            self.size, assume=subset + ld, refute=target))

    def units(self):
        def stratum(task):
            return (task.refute, "LD" in task.assume, len(task.assume))
        return _cycle(lambda rng: stratified_order(self.tasks, stratum, rng), self.rng)

    def tasks_in(self, unit) -> int:
        return 1

    def run(self, task: SearchTask, tr, tally: Tally) -> None:
        start = perf_counter()
        expected = tr.call("oracle.oracle_search", oracle_search, task) is not None
        decided = True
        for symmetry in (True, False):
            cnf = tr.call("encoder.encode_search", encode_search, task,
                          EncodeOptions(symmetry=symmetry))
            tr.count("encoder.vars", cnf.num_vars)
            tr.count("encoder.clauses", cnf.clause_count)
            result = tr.call("solver.solve_builtin", solve_builtin, cnf)
            tr.count("solver.decisions", result.stats.get("decisions", 0))
            tr.count("solver.propagations", result.stats.get("propagations", 0))
            label = f"{task.describe()} symmetry={symmetry}"
            if result.status not in (SAT, UNSAT):
                decided = False
                continue
            if (result.status == SAT) != expected:
                tally.wrong.append(f"{label}: solver {result.status}, oracle "
                                   f"{'SAT' if expected else 'UNSAT'}")
            elif result.status == SAT:
                model = tr.call("encoder.decode_model", decode_model,
                                result.assignment, cnf.varmap, task.size)
                complaint = verify(task, model, tr)
                if complaint is not None:
                    tally.wrong.append(f"{label}: {complaint}")
        tally.latencies.append(perf_counter() - start)
        tally.attempted += 1
        tally.failed += not decided


class EncodeN7:
    """The six criterion-3 tasks (each target against the other five, no
    LD) at n = 7, encoded and written as DIMACS; nothing is solved."""

    name = "encode-n7"
    size = 7
    clients = CORES
    sample_during = False
    trace_units = 2

    def __init__(self, seed: int, tr, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tasks = [
            SearchTask.make(self.size, refute=target,
                            assume=[d for d in DISTRIBUTIVITY_NAMES if d != target])
            for target in DISTRIBUTIVITY_NAMES
        ]

    def units(self):
        def order(rng):
            tasks = list(self.tasks)
            rng.shuffle(tasks)
            return tasks
        return _cycle(order, self.rng)

    def tasks_in(self, unit) -> int:
        return 1

    def run(self, task: SearchTask, tr, tally: Tally) -> None:
        path = self.workdir / f"{task.refute}.cnf"
        start = perf_counter()
        cnf = tr.call("encoder.encode_search", encode_search, task)
        tr.call("encoder.write_dimacs_file", write_dimacs_file, cnf, path)
        tally.latencies.append(perf_counter() - start)
        tally.attempted += 1
        tr.count("encoder.vars", cnf.num_vars)
        tr.count("encoder.clauses", cnf.clause_count)
        tr.count("encoder.dimacs_bytes", path.stat().st_size)
        complaint = _check_dimacs(path, cnf.num_vars, cnf.clause_count)
        path.unlink()
        if complaint is not None:
            tally.wrong.append(f"{task.describe()}: {complaint}")


def _check_dimacs(path: Path, num_vars: int, clause_count: int) -> str | None:
    """The header must read `p cnf <num_vars> <clause_count>` and exactly
    that many clause lines must follow it."""
    with open(path, "rb") as handle:
        for line in handle:
            if not line.startswith(b"c"):
                break
        else:
            return "no header"
        expected = f"p cnf {num_vars} {clause_count}\n".encode()
        if line != expected:
            return f"header {line!r}, expected {expected!r}"
        lines = 0
        last = b"\n"
        while chunk := handle.read(1 << 20):
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    if last != b"\n":
        return "last clause line unterminated"
    if lines != clause_count:
        return f"{lines} clause lines, header says {clause_count}"
    return None


class GridLD:
    """Criterion-4 shape through run_grid: one target per unit, against all
    32 subsets of the other five with LD assumed, sizes 2..4, each task in
    its own worker process; then a resume pass over the same directory,
    load_results and report_bundle.

    Expected verdicts: at n <= 3 the exhaustive oracle's (UNSAT throughout,
    for every goal); at n = 4, UNSAT
    exactly when the target lies in the implication closure of the
    assumptions.  Every one of the 144 non-implied (subset, target) pairs
    has a countermodel of size 4 and none smaller, so a spurious UNSAT
    shows as a wrong verdict.
    """

    name = "grid-ld"
    clients = 1  # run_grid already keeps GRID_WORKERS processes busy
    sample_during = True  # the main process mostly waits for the workers
    trace_units = 1

    def __init__(self, seed: int, tr, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.runs = 0
        self.grids = {}
        for n in range(GRID_SIZES[0], EXHAUSTIVE_BOUND + 1):
            tr.call("oracle.count_models", count_models, n)
        for target in DISTRIBUTIVITY_NAMES:
            others = [d for d in DISTRIBUTIVITY_NAMES if d != target]
            subsets = tuple(frozenset(c) for r in range(len(others) + 1)
                            for c in itertools.combinations(others, r))
            config = GridConfig(
                targets=(target,), policy="explicit", subsets=subsets,
                ld="assume", min_size=GRID_SIZES[0], max_size=GRID_SIZES[1],
                workers=GRID_WORKERS, solver="builtin", out_dir=workdir,
            )
            self.grids[target] = (config, tr.call("orchestrator.build_grid",
                                                  build_grid, config))

    def units(self):
        def order(rng):
            targets = list(DISTRIBUTIVITY_NAMES)
            rng.shuffle(targets)
            return targets
        return _cycle(order, self.rng)

    def tasks_in(self, target) -> int:
        return len(self.grids[target][1])

    def run(self, target: str, tr, tally: Tally) -> None:
        self.runs += 1
        out_dir = self.workdir / f"grid-{self.runs}"
        config, tasks = self.grids[target]
        config = replace(config, out_dir=out_dir)
        first = tr.call("orchestrator.run_grid", run_grid, tasks, config)
        start = perf_counter()
        resumed = tr.call("orchestrator.run_grid:resume", run_grid, tasks, config)
        tally.resume_s.append(perf_counter() - start)
        records = tr.call("orchestrator.load_results", load_results, out_dir)
        files = tr.call("reporting.report_bundle", report_bundle, records,
                        out_dir / "report")
        tr.count("orchestrator.records", len(records))
        tr.count("reporting.files", len(files))

        for outcome in (first, resumed):
            tally.wrong.extend(f"{target}: {e}" for e in outcome.errors)
            tally.wrong.extend(f"{target}: expected UNSAT, got SAT: "
                               f"{r.task.describe()}" for r in outcome.violations)
        if len(records) != len(tasks) or len(resumed.results) != len(tasks):
            tally.wrong.append(f"{target}: {len(tasks)} tasks, {len(records)} "
                               f"records, {len(resumed.results)} resumed")
        settled = {r.task.key(): r.status for r in first.results}
        for result in resumed.results:
            if settled.get(result.task.key()) != result.status:
                tally.wrong.append(f"{target}: resume changed {result.task.describe()}")
        for record in records:
            label = record.task.describe()
            expected = self.expected_status(record.task, tr)
            if record.status in (SAT, UNSAT) and record.status != expected:
                tally.wrong.append(f"{label}: {record.status}, expected {expected}")
            if record.status == SAT:
                complaint = verify(record.task, record.model, tr)
                if complaint is not None:
                    tally.wrong.append(f"{label}: {complaint}")
        # worker-side seconds, unrounded: the records keep only milliseconds
        for result in first.results:
            if result.status == UNKNOWN and (result.reason or "").startswith("cancelled"):
                continue
            tally.attempted += 1
            if result.status == UNKNOWN:
                tally.failed += 1
            else:
                tally.latencies.append(result.seconds)
                tr.count("orchestrator.busy_s", result.seconds)
        shutil.rmtree(out_dir)

    @staticmethod
    def expected_status(task: SearchTask, tr) -> str:
        if task.size <= EXHAUSTIVE_BOUND:
            found = tr.call("oracle.oracle_search", oracle_search, task)
            return UNSAT if found is None else SAT
        premises = task.assume - {"LD"}
        implied = task.refute in tr.call("orchestrator.implication_closure",
                                         implication_closure, premises)
        return UNSAT if implied else SAT


WORKLOADS = {w.name: w for w in (SweepN3, EncodeN7, GridLD)}


def run_unit(workload, unit, tr, tally: Tally) -> None:
    try:
        workload.run(unit, tr, tally)
    except Exception:
        traceback.print_exc()
        tally.attempted += workload.tasks_in(unit)
        tally.failed += workload.tasks_in(unit)


class HostSampler:
    """Appends a host-speed sample to `samples` every CALIB_EVERY_S, from a
    thread of its own, while the calling thread waits on worker processes."""

    def __init__(self, samples: list[float]):
        self.samples = samples
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self.stop.wait(CALIB_EVERY_S):
            self.samples.append(calibrate())

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop.set()
        self.thread.join()


def closed_loop(workload, units, seconds: float, tally: Tally) -> float:
    """Run unit after unit for about `seconds` of work: the next unit starts
    only if it should end less than half a unit past the limit, so that
    long units (a whole grid) do not stretch the run.  Host-speed samples
    go into the tally: between units, at most every CALIB_EVERY_S, or, for
    a workload whose work runs in worker processes, also during each unit
    from a HostSampler.  Returns the wall time spent in units, the samples
    taken between them excluded."""
    tr = NullTracer()
    samples = tally.calib_s
    samples.append(calibrate())
    last_sample = start = perf_counter()
    sampling = 0.0
    done = 0
    elapsed = 0.0
    while done == 0 or elapsed + elapsed / done / 2 < seconds:
        before = len(samples) - 1
        if workload.sample_during:
            with HostSampler(samples):
                run_unit(workload, next(units), tr, tally)
        else:
            run_unit(workload, next(units), tr, tally)
        # the unit's own window: the samples from the last one before it
        # to the first one after it, taken below or at the latest at the end
        window = (before, len(samples))
        tally.windows += [window] * (len(tally.latencies) - len(tally.windows))
        done += 1
        now = perf_counter()
        if workload.sample_during or now - last_sample >= CALIB_EVERY_S:
            samples.append(calibrate())
            last_sample = perf_counter()
            sampling += last_sample - now
        elapsed = perf_counter() - start - sampling
    samples.append(calibrate())
    return elapsed


def host_normalised(tally: Tally, wall: float) -> tuple[Tally, float]:
    """The client's latencies and its tasks per second, rescaled to the
    reference host speed: each latency by the mean of its unit's window of
    samples, the rate by the mean of all samples."""
    c = tally.calib_s
    scaled = replace(tally, latencies=[
        t * to_reference(c[lo:hi + 1])
        for t, (lo, hi) in zip(tally.latencies, tally.windows)])
    return scaled, tally.attempted / wall / to_reference(c)


def run_clients(name: str, seed: int, seconds: float,
                workdir: Path) -> list[tuple[Tally, float]]:
    """Closed loop from the workload's client processes (client.py), all
    started together.  Returns each client's tally and wall time.  Every
    client is waited for; on an error it is killed first."""
    if WORKLOADS[name].clients == 1:
        # In this process: run_grid then forks its workers, as it does for
        # any other caller on Linux.
        workload = WORKLOADS[name](seed, NullTracer(), workdir)
        tally = Tally()
        wall = closed_loop(workload, workload.units(), seconds, tally)
        return [(tally, wall)]
    procs = []
    try:
        for index in range(WORKLOADS[name].clients):
            procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve().with_name("client.py")),
                 name, str(seed), str(workdir / f"client-{index}"), str(index),
                 str(seconds)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
        for proc in procs:
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"{name} client failed during set-up")
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        results = []
        for proc in procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"{name} client exited without a tally")
            results.append(json.loads(line))
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return [(Tally(**r["tally"]), r["wall"]) for r in results]


def merge(tallies) -> Tally:
    merged = Tally()
    for tally in tallies:
        merged.latencies += tally.latencies
        merged.attempted += tally.attempted
        merged.failed += tally.failed
        merged.wrong += tally.wrong
        merged.resume_s += tally.resume_s
        merged.calib_s += tally.calib_s
    return merged
