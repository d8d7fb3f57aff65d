"""Grid construction and parallel execution of independence experiments.

A grid is a list of distinct `SearchTask`s.  A goal, which `goal_of`
names, is one independence question: can the target identity fail while
the assumptions hold?  It is a task without its size; LD is one of the
assumptions, so a subset with and without LD makes two goals.  Goals run
their sizes in ascending order, so the first SAT is the minimal witness
within the range; different goals run concurrently, those with the fewest
assumptions first.  The coordinator is the single writer of the result
file and re-verifies every claimed model before recording it.

A task is solved as one subtask per lattice (`task_lattices`): for n up to
`oracle.LATTICE_BOUND`, one per isomorphism class of n-element lattices,
the distributive ones only when LD is assumed, each encoded with its meet
and join fixed (`EncodeOptions.lattice`); above that bound, one subtask
whose lattice is None searches every lattice at once.  A verified model on
any lattice answers the task; the task is UNSAT once every one of its
lattices is.  Each record is still one task's, its seconds the worker time
of the subtasks solved for it plus the checks that settled the rest.

An answer settles subtasks without a solve: an UNSAT for (A, t, n) on
lattice L answers lattice L of (A', t, n) for every A' containing A, since
more assumptions admit no more models, and a verified model answers every
task whose assumptions hold in it and whose target fails in it, after the
coordinator verifies it for that task too.  Every answer a worker gives
is kept for the rest of the grid, in one list per size that each task is
checked against once; replayed answers, settled answers, failures and
timeouts settle nothing.  A record settled on every lattice has the
reason `settled by <task> on <lattice>`, one such part per lattice; an
UNSAT that solved some of its lattices and was settled on the rest has
`solved on <lattices>; settled by ...`.

One scheduling pass runs before the first subtask and after each wakeup's
answers and timeouts.  It records each goal's next tasks, unsolved, while
kept answers settle them, so an answer also settles goals that reach its
size later, and each goal's records still ascend in size.  It then hands
out the open subtasks of each goal's next task, one per goal per round in
goal order, while a worker is free.  A subtask (T, L) waits while a
subtask of the same target with fewer assumptions and no larger size is
in flight and may answer it first: one on lattice L at T's size, whose
UNSAT would settle it, or one of a task not yet answered, whose model
might; RULES exempt a predicted UNSAT from the second wait for a task they
do not predict, as no model settles a proof.  A SAT answers its goal, and
the goal's larger sizes are recorded as cancelled.  A subtask still in
flight when its task is answered runs to its end, or to its task's
deadline, on the same worker, and its answer is kept to settle other
tasks; its seconds are on no record.
Once no task is left to answer, the grid ends and kills what still runs.

Every task, in a grid or alone (`run_task`), runs in a worker process that
leads its own process group.  This is the package's one time limit: a
task's deadline is the submission of its first subtask plus the timeout,
shared by all its subtasks, a sibling still running after its task was
answered included.  At the deadline, or when the caller unwinds (an
exception, Ctrl-C, or SIGTERM and SIGHUP, which `cli.main` turns into
`SystemExit`), the whole group of each worker still on the task is killed,
an external solver included, whatever the engine and layer, and none of its
subtasks starts any more.  A timed-out or failed subtask leaves its task
UNKNOWN unless a sibling answers SAT.

A grid keeps at most `workers` worker processes and hands each the next
subtask when it answers, so the encoder's per-size and per-lattice caches
stay warm from subtask to subtask.  A worker whose subtask timed out, that
died without an answer or that answered ERROR is killed, and a fresh one
is forked when a subtask needs it; every worker is killed when the grid
ends.  A worker joins its caller's pool before it is forked, so that an
unwinding that cuts its start short kills it too.  A worker also exits
when the pipe from its coordinator closes: each worker closes its copies
of the coordinator's ends of every pipe that was open when it was
forked, so that no worker keeps another's pipe open.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import os
import shutil
import signal
import tempfile
import time
import warnings
import weakref
from dataclasses import dataclass, field
from functools import cache
from multiprocessing.connection import wait as conn_wait
from pathlib import Path
from typing import Iterable, Mapping

from .algebra import (
    FiniteBinar,
    Table,
    binar_from_dict,
    binar_to_dict,
    check_identity,
    covering_relation,
    order_from_tables,
    verify,
)
from .encoder import ENCODING_CEILING, EncodeOptions, SearchTask, decode_model, encode_search
from .oracle import LATTICE_BOUND, enumerate_lattices, is_distributive
from .solver import DEFAULT_SOLVER, SAT, UNKNOWN, UNSAT, solve
from .terms import DISTRIBUTIVITY_NAMES, IDENTITY_NAMES, builtin

# seconds: a worker's deadline is waited on in whole milliseconds, at most 2**31 - 1
TIMEOUT_CEILING = 2_147_483
# fork, whatever the interpreter's default: the coordinator must be the
# worker's parent for its setpgid to make the group before any kill
_FORK = mp.get_context("fork")
RESULTS_NAME = "results.jsonl"
_CANCELLED = "cancelled: goal satisfied at size"
SETTLED = "settled by"

# not answers: the worker died or raised (ERROR) or sent a bad model (FAIL)
ERROR = "ERROR"
FAIL = "FAIL"

RULES: tuple[tuple[frozenset[str], str], ...] = (
    (frozenset({"D4", "D5"}), "D3"),
    (frozenset({"D3", "D6"}), "D4"),
    (frozenset({"D1", "D4"}), "D6"),
    (frozenset({"D2", "D3"}), "D5"),
    (frozenset({"D5", "D1"}), "D2"),
    (frozenset({"D6", "D2"}), "D1"),
)


# the fixed (meet, join) tables of a subtask, or None for every lattice
Lattice = tuple[Table, Table] | None


class ConfigError(ValueError):
    pass


def check_timeout(timeout: float | None) -> None:
    """Raise ConfigError unless timeout is None (no limit) or a number of
    seconds with 0 < timeout <= TIMEOUT_CEILING."""
    if timeout is not None and not 0 < timeout <= TIMEOUT_CEILING:
        raise ConfigError(
            f"invalid timeout: {timeout} (need 0 < seconds <= {TIMEOUT_CEILING})"
        )


def implication_closure(identities: Iterable[str]) -> frozenset[str]:
    """Least fixpoint of the six derivation rules (valid when LD is assumed)."""
    closed = set()
    for name in identities:
        if name not in DISTRIBUTIVITY_NAMES:
            raise ValueError(f"closure is over {DISTRIBUTIVITY_NAMES}, got {name!r}")
        closed.add(name)
    changed = True
    while changed:
        changed = False
        for premises, conclusion in RULES:
            if conclusion not in closed and premises <= closed:
                closed.add(conclusion)
                changed = True
    return frozenset(closed)


def goal_of(task: SearchTask) -> tuple[str, tuple[str, ...]]:
    """The question a task asks at its size: (target, sorted assumptions)."""
    return task.refute or "none", tuple(sorted(task.assume))


def expects_unsat(task: SearchTask) -> bool:
    """Whether RULES rule out every model: LD is assumed and the target
    follows from the other assumptions."""
    return "LD" in task.assume and task.refute in implication_closure(task.assume - {"LD"})


@cache
def task_lattices(size: int, ld: bool) -> tuple[Lattice, ...]:
    """The lattices of a task's subtasks, given its size and whether it
    assumes LD: up to LATTICE_BOUND, the representatives of
    oracle.enumerate_lattices, only the distributive ones under LD, the
    chain first (on a chain every D_i and LD hold, so its subtask is the
    UNSAT that most goals share, and they should wait for it rather than
    prove it again); above, None alone."""
    if size > LATTICE_BOUND:
        return (None,)
    lattices = [lattice for lattice in enumerate_lattices(size, up_to_iso=True)
                if not ld or is_distributive(*lattice)]
    # the chain is the lattice whose meet is one of its arguments throughout
    return tuple(sorted(lattices, key=lambda lattice: any(
        lattice[0][x][y] not in (x, y) for x in range(size) for y in range(size))))


@cache
def lattice_name(lattice: tuple[Table, Table]) -> str:
    """The lattice as its covering pairs: "lattice 0<1 0<2 1<3 2<3"."""
    edges = covering_relation(order_from_tables(*lattice))
    return "lattice " + " ".join(f"{x}<{y}" for x, y in edges)


def describe(task: SearchTask, lattice: Lattice) -> str:
    """A subtask as task.describe(), and its lattice if it has one."""
    if lattice is None:
        return task.describe()
    return f"{task.describe()} on {lattice_name(lattice)}"


@dataclass(frozen=True)
class GridConfig:
    targets: tuple[str, ...] = DISTRIBUTIVITY_NAMES
    policy: str = "all-others"  # or "explicit"
    subsets: tuple[frozenset[str], ...] = ()
    ld: str = "omit"  # assume | omit | both
    min_size: int = 2
    max_size: int = 10
    workers: int = 1
    timeout: float | None = None  # seconds per task; None for no limit
    solver: str = DEFAULT_SOLVER
    out_dir: str | Path = "results"

    def __post_init__(self):
        if not self.targets:
            raise ConfigError("no targets")
        for t in self.targets:
            if t not in DISTRIBUTIVITY_NAMES:
                raise ConfigError(f"target must be one of {DISTRIBUTIVITY_NAMES}: {t!r}")
        if self.policy not in ("all-others", "explicit"):
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.policy == "explicit" and not self.subsets:
            raise ConfigError("explicit policy needs assumption subsets")
        if self.policy == "all-others" and self.subsets:
            raise ConfigError("assumption subsets need policy='explicit'")
        for sub in self.subsets:
            for name in sub:
                if name not in DISTRIBUTIVITY_NAMES:
                    raise ConfigError(f"assumption must be a distributivity name: {name!r}")
        if self.ld not in ("assume", "omit", "both"):
            raise ConfigError(f"ld mode must be assume, omit or both: {self.ld!r}")
        if not 1 <= self.min_size <= self.max_size <= ENCODING_CEILING:
            raise ConfigError(f"need 1 <= min <= max <= {ENCODING_CEILING},"
                              f" got [{self.min_size},{self.max_size}]")
        if self.workers < 1:
            raise ConfigError("worker count must be at least 1")
        check_timeout(self.timeout)


@dataclass(frozen=True)
class SearchResult:
    task: SearchTask
    status: str
    model: FiniteBinar | None
    seconds: float
    solver: str
    reason: str | None = None

    def to_record(self) -> dict:
        record = {
            "task": {
                "size": self.task.size,
                "assume": sorted(self.task.assume),
                "refute": self.task.refute,
                "ld": "assume" if "LD" in self.task.assume else "omit",
                "expect_unsat": expects_unsat(self.task),
            },
            "status": self.status,
            "seconds": round(self.seconds, 3),
            "solver": self.solver,
        }
        if self.model is not None:
            record["model"] = binar_to_dict(self.model)
        if self.reason is not None:
            record["reason"] = self.reason
        return record

    @classmethod
    def from_record(cls, record: Mapping) -> "SearchResult":
        """The result a parsed JSONL line holds; ValueError if it holds none."""
        try:
            spec = record["task"]
            if isinstance(spec["assume"], str):
                raise ValueError(f"assume must be a list of names: {spec['assume']!r}")
            task = SearchTask(spec["size"], frozenset(spec["assume"]), spec.get("refute"))
            status = record["status"]
            model = record.get("model")
            if status not in (SAT, UNSAT, UNKNOWN) or (status == SAT) != (model is not None):
                has = "with" if model is not None else "without"
                raise ValueError(f"status {status!r} {has} a model")
            seconds = record.get("seconds", 0.0)
            if type(seconds) not in (int, float) or not 0 <= seconds < math.inf:
                raise ValueError(f"seconds must be a finite number >= 0: {seconds!r}")
            solver, reason = record.get("solver", "?"), record.get("reason")
            if not isinstance(solver, str):
                raise ValueError(f"solver must be a string: {solver!r}")
            if reason is not None and not isinstance(reason, str):
                raise ValueError(f"reason must be a string: {reason!r}")
            return cls(
                task=task,
                status=status,
                model=None if model is None else binar_from_dict(model),
                seconds=float(seconds),
                solver=solver,
                reason=reason,
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"not a result record: {exc!r}") from None


@dataclass
class GridOutcome:
    """The results recorded, one per task, and the failures met.  subtasks
    counts the (task, lattice) subtasks a worker answered SAT or UNSAT;
    stray_s is the worker time of those whose task was answered before
    they ended, which no record carries."""

    results: list[SearchResult] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    subtasks: int = 0
    stray_s: float = 0.0

    @property
    def violations(self) -> list[SearchResult]:
        """The SAT answers to tasks expected UNSAT."""
        return [r for r in self.results if r.status == SAT and expects_unsat(r.task)]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors


def build_grid(config: GridConfig) -> list[SearchTask]:
    """Cross product of targets, assumption subsets, LD modes and sizes,
    each distinct task once."""
    ld_modes = {"assume": [{"LD"}], "omit": [set()], "both": [{"LD"}, set()]}[config.ld]
    tasks: dict[SearchTask, None] = {}
    for target in config.targets:
        if config.policy == "all-others":
            subsets = [frozenset(d for d in DISTRIBUTIVITY_NAMES if d != target)]
        else:
            subsets = config.subsets
        for subset in subsets:
            if target in subset:
                raise ConfigError(f"target {target} inside assumption subset")
            for ld in ld_modes:
                for size in range(config.min_size, config.max_size + 1):
                    tasks[SearchTask(size, subset | ld, target)] = None
    return sorted(tasks, key=lambda t: (
        DISTRIBUTIVITY_NAMES.index(t.refute), sorted(t.assume), t.size
    ))


# --- persistence ---------------------------------------------------------------

def persist_result(result: SearchResult, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / RESULTS_NAME, "a", encoding="utf-8") as handle:
        _write_record(handle, result)


def _write_record(handle, result: SearchResult) -> None:
    """Append the result's line to an open result file and flush it, so
    that a crash loses at most the line being written."""
    handle.write(json.dumps(result.to_record(), sort_keys=True) + "\n")
    handle.flush()


def load_results(directory: str | Path) -> list[SearchResult]:
    """The last record of each task in the result file, in the order the
    tasks first appear; a bad line is corrupt unless, lacking its newline,
    it is a last write cut short, which is skipped."""
    path = Path(directory) / RESULTS_NAME
    if not path.exists():
        return []
    latest: dict[tuple, SearchResult] = {}
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            result = SearchResult.from_record(json.loads(line))
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            if not line.endswith("\n"):  # only the last line can lack it
                warnings.warn(f"dropping partial trailing result line: {exc}")
                continue
            raise OSError(f"corrupt result line {i + 1} in {path}: {exc}") from None
        latest[result.task.key()] = result
    return list(latest.values())


def _end_last_line(path: Path) -> None:
    """Make the result file safe to append to after a write was cut short.

    A last line without its newline is cut away when it holds no whole
    record, as load_results has already dropped it, and otherwise gets one.
    """
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    start = data.rfind(b"\n") + 1
    try:
        SearchResult.from_record(json.loads(data[start:]))
    except (KeyError, ValueError):
        os.truncate(path, start)
        return
    with open(path, "ab") as handle:
        handle.write(b"\n")


# --- execution -----------------------------------------------------------------

# The coordinator's ends of the workers' pipes.  A fork copies every one
# of them, and a copy left open in one worker would keep another worker's
# pipe from closing when the coordinator dies.
_COORDINATOR_ENDS: weakref.WeakSet = weakref.WeakSet()


def _serve(solver_spec: str, scratch: str, conn) -> None:
    """Worker body: answer each (task, lattice) received on `conn` (encode,
    solve, decode) until the coordinator's end closes; the caches of
    encode_search stay warm from subtask to subtask."""
    os.setpgid(0, 0)
    # else this process would hold its own pipe, or an earlier worker's,
    # open and never let it see EOF
    for end in _COORDINATOR_ENDS:
        end.close()
    # a killed solve cannot clean up; its temporary files go with `scratch`
    tempfile.tempdir = scratch
    while True:
        try:
            task, lattice = conn.recv()
        except (EOFError, OSError):  # the coordinator is gone
            return
        start = time.monotonic()
        try:
            cnf = encode_search(task, EncodeOptions(symmetry=True, lattice=lattice))
            result = solve(cnf, solver_spec)
            payload = {
                "status": result.status,
                "seconds": time.monotonic() - start,
                "reason": result.reason,
            }
            if result.status == SAT:
                model = decode_model(result.assignment, cnf.varmap, task.size)
                payload["model"] = binar_to_dict(model)
        except Exception as exc:  # surfaced as a task failure, never a crash
            payload = {
                "status": ERROR,
                "seconds": time.monotonic() - start,
                "reason": f"{type(exc).__name__}: {exc}",
            }
        try:
            conn.send(payload)
        except OSError:  # the coordinator is gone
            return


class WorkerStartError(OSError):
    """A worker process, its pipe or its scratch directory could not be
    made (the process table or the file descriptors are full)."""


class _Worker:
    """A process that answers one subtask at a time, for as many as it is
    given, and leads a process group of its own so that stop() kills
    every process a solve started.  task and lattice are the subtask it is
    answering, task None while it waits; started is when that subtask was
    submitted.

    A worker made for a pool appends itself to it before it makes
    anything, so that the caller's cleanup reaches it wherever an
    exception or a signal cuts its making short."""

    def __init__(self, solver_spec: str, pool: list[_Worker] | None = None):
        self.task: SearchTask | None = None
        self.lattice: Lattice = None
        self.started = 0.0
        self.scratch = self.conn = self.proc = None
        if pool is not None:
            pool.append(self)
        try:
            self.scratch = tempfile.mkdtemp(prefix="resbinar-")
            self.conn, child = _FORK.Pipe()
            _COORDINATOR_ENDS.add(self.conn)
            try:
                self.proc = _FORK.Process(target=_serve, args=(solver_spec, self.scratch, child))
                self.proc.start()
            finally:
                child.close()
        except OSError as exc:
            self.stop()
            raise WorkerStartError(f"cannot start a worker: {exc}") from exc
        # as shells do, so that the group exists before stop() can be called
        try:
            os.setpgid(self.proc.pid, self.proc.pid)
        except OSError:  # the worker has already exited
            pass

    def submit(self, task: SearchTask, lattice: Lattice = None) -> None:
        self.task, self.lattice, self.started = task, lattice, time.monotonic()
        try:
            self.conn.send((task, lattice))
        except OSError:  # the worker has died: receive() reports it
            pass

    def receive(self) -> dict | None:
        """The worker's payload; None when it died without sending one."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def stop(self) -> None:
        """Kill the worker's process group and release its pipe and files:
        whatever of them was made, once."""
        proc, self.proc = self.proc, None
        if proc is not None and proc.pid is not None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                # every process in the group has exited, or the worker's
                # making was cut short before the group was made
                proc.kill()
            proc.join()
        if self.conn is not None:
            self.conn.close()
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


def _verdict(task: SearchTask, payload: dict | None) -> tuple[str, FiniteBinar | None, str | None]:
    """(status, model, reason) of a worker payload; a model only after it
    passes verify.  The status is ERROR or FAIL for a task that failed; a
    FAIL's reason holds verify's complaints, one a line."""
    if payload is None:
        return ERROR, None, "worker died without reporting"
    status, reason = payload["status"], payload.get("reason")
    if status != SAT:
        return status, None, reason
    model = binar_from_dict(payload["model"])
    failures = verify(task, model)
    if failures:
        return FAIL, None, "\n".join(failures)
    return SAT, model, reason


def run_task(task: SearchTask, solver_spec: str,
             timeout: float | None = None) -> tuple[str, FiniteBinar | None, str | None]:
    """Solve one task in a worker killed after `timeout` seconds (None for
    no limit); returns the verified (status, model, reason)."""
    check_timeout(timeout)
    pool: list[_Worker] = []
    try:
        worker = _Worker(solver_spec, pool)
        worker.submit(task)
        if not worker.conn.poll(timeout):
            return UNKNOWN, None, f"timeout after {timeout}s"
        payload = worker.receive()
    finally:
        for worker in pool:
            worker.stop()
    return _verdict(task, payload)


@dataclass(eq=False)
class _Answering:
    """A task a scheduling pass has reached as its goal's next one: its
    lattices neither answered nor handed out, its deadline, and what its
    answered subtasks left.  It stays after the task is recorded, so that
    a sibling still in flight finds its deadline."""

    task: SearchTask
    open: list[Lattice]
    deadline: float = math.inf  # from its first subtask's submission on
    seconds: float = 0.0  # its solved subtasks' worker time and its settling checks'
    settled: list[str] = field(default_factory=list)  # the subtask that settled each lattice
    solved: list[str] = field(default_factory=list)  # the lattices it was UNSAT on itself
    failure: str | None = None  # the first failed subtask's reason
    tried: int = 0  # kept answers of its size it was checked against
    recorded: bool = False


def run_grid(tasks: Iterable[SearchTask], config: GridConfig) -> GridOutcome:
    """Dispatch tasks to worker processes; single-writer, resumable.

    Goals are dispatched with the fewest assumptions first, ties in the
    order given, so that goals tend to reach each size together; settling,
    waiting and cancelling follow the module docstring.

    A rerun into the same directory replays the recorded SAT and UNSAT
    answers, settled ones included, and the cancellations behind a
    replayed SAT of the same goal.  Every other task runs again: one with
    no record, and one whose record is a failure, a timeout or a
    cancellation whose SAT is not on record.
    """
    outcome = GridOutcome()
    try:
        existing = {r.task.key(): r for r in load_results(config.out_dir)}
    except OSError as exc:
        outcome.errors.append(str(exc))
        return outcome
    path = Path(config.out_dir) / RESULTS_NAME
    if path.exists():
        _end_last_line(path)

    pending: dict[tuple, list[SearchTask]] = {}  # per goal, smallest size first
    for task in dict.fromkeys(tasks):
        pending.setdefault(goal_of(task), []).append(task)
    for queue in pending.values():
        queue.sort(key=lambda task: task.size)
    pending = dict(sorted(pending.items(), key=lambda item: len(item[0][1])))

    def answer(task: SearchTask, status, model, reason, seconds) -> None:
        """Record a result; a SAT answers its goal and cancels the goal's
        larger sizes, in a loop: an answer that called itself would be a
        reference cycle holding every result until the collector ran."""
        results = [SearchResult(task, status, model, seconds, config.solver, reason)]
        if status == SAT:
            queue = pending[goal_of(task)]
            results += [SearchResult(rest, UNKNOWN, None, 0.0, config.solver,
                                     f"{_CANCELLED} {task.size}") for rest in queue]
            queue.clear()
        for result in results:
            _write_record(handle, result)
            outcome.results.append(result)

    pool: list[_Worker] = []  # at most config.workers, busy or waiting
    # per size, each subtask a worker answered SAT or UNSAT in this call:
    # (task, lattice, model or None, identities holding in the model)
    answers: dict[int, list[tuple]] = {}
    answering: dict[SearchTask, _Answering] = {}  # per task a pass has reached

    def settle(state: _Answering) -> tuple | None:
        """(status, model, reason) once state's task is answered, None
        while it is not.  Each kept answer is checked against the task
        once: a model answers the whole task, an UNSAT the task's subtask
        on its lattice.  The time of each check that settles something is
        added to state.seconds."""
        task = state.task
        stored = answers.get(task.size, [])
        fresh = stored[state.tried:]
        state.tried = len(stored)
        for by, lattice, model, holds in fresh:
            if model is not None:
                start = time.monotonic()
                if task.assume <= holds and task.refute not in holds and not verify(task, model):
                    state.seconds += time.monotonic() - start
                    return SAT, model, f"{SETTLED} {describe(by, lattice)}"
        for lattice in tuple(state.open):
            for by, proved_on, model, _ in fresh:
                if model is None and proved_on == lattice:
                    start = time.monotonic()
                    if by.refute == task.refute and by.assume <= task.assume:
                        state.seconds += time.monotonic() - start
                        state.open.remove(lattice)
                        state.settled.append(describe(by, lattice))
                        break
        if time.monotonic() >= state.deadline:
            # its subtasks in flight are killed at the same deadline
            state.open.clear()
            state.failure = state.failure or f"timeout after {config.timeout}s"
        if state.open or any(w.task is task for w in pool):
            return None
        if state.failure is not None:
            return UNKNOWN, None, state.failure
        if not state.settled:
            return UNSAT, None, None
        reason = f"{SETTLED} " + "; ".join(state.settled)
        if state.solved:
            reason = f"solved on {', '.join(state.solved)}; {reason}"
        return UNSAT, None, reason

    def conclude(state: _Answering, found: tuple) -> None:
        """Record the answer `found` of state's task, its goal's next one."""
        state.recorded = True
        answer(pending[goal_of(state.task)].pop(0), *found, state.seconds)

    def waits(task: SearchTask, lattice: Lattice, flying: list[tuple]) -> bool:
        """Whether a subtask in flight may answer (task, lattice) first, by
        the rule of the module docstring."""
        for other, other_lattice in flying:
            if (other.refute != task.refute or not other.assume < task.assume
                    or other.size > task.size):
                continue
            if lattice is not None and (other.size, other_lattice) == (task.size, lattice):
                return True
            if not answering[other].recorded and (expects_unsat(other) or not expects_unsat(task)):
                return True
        return False

    def schedule() -> list[_Answering]:
        """One pass: record each goal's next tasks while they are answered,
        then hand out open subtasks, one per goal per round, to free
        workers, skipping those that wait.  Returns the states of the
        tasks left unanswered."""
        heads: list[_Answering] = []
        for queue in pending.values():
            while queue:
                state = answering.get(queue[0])
                if state is None:
                    task = queue[0]
                    state = answering[task] = _Answering(
                        task, list(task_lattices(task.size, "LD" in task.assume)))
                found = settle(state)
                if found is None:
                    heads.append(state)
                    break
                conclude(state, found)
        flying = [(w.task, w.lattice) for w in pool if w.task is not None]
        handed = True
        while handed and len(flying) < config.workers:
            handed = False
            for state in heads:
                if len(flying) >= config.workers:
                    break
                for lattice in state.open:
                    if not waits(state.task, lattice, flying):
                        break
                else:
                    continue
                state.open.remove(lattice)
                worker = next((w for w in pool if w.task is None), None)
                if worker is None:
                    worker = _Worker(config.solver, pool)
                worker.submit(state.task, lattice)
                # the first submission's, as `started` only grows
                state.deadline = min(state.deadline, worker.started + (config.timeout or math.inf))
                flying.append((state.task, lattice))
                handed = True
        return heads

    def finish(task: SearchTask, lattice: Lattice, status, model, reason, seconds) -> None:
        """Keep a worker's answer to (task, lattice) and give it to the
        task, recording the task if that answers it; a task answered
        before leaves the subtask's seconds stray."""
        if status == FAIL:
            reason = "model failed verification: " + reason.replace("\n", "; ")
        if status in (ERROR, FAIL):
            outcome.errors.append(f"{describe(task, lattice)}: {reason}")
            status = UNKNOWN
        if status != UNKNOWN:
            holds = None if model is None else {
                name for name in IDENTITY_NAMES if check_identity(model, builtin(name)) is None}
            answers.setdefault(task.size, []).append((task, lattice, model, holds))
            outcome.subtasks += 1
        state = answering[task]
        if state.recorded:
            outcome.stray_s += seconds
            return
        state.seconds += seconds
        if status == SAT:
            conclude(state, (SAT, model, reason))
            return
        if status == UNKNOWN:
            state.failure = state.failure or reason
        elif lattice is not None:
            state.solved.append(lattice_name(lattice))
        found = settle(state)
        if found is not None:
            conclude(state, found)

    # one handle for the whole grid, written through _write_record
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "a", encoding="utf-8")
    try:
        for queue in pending.values():
            fresh: list[SearchTask] = []
            sat_size = None
            for task in queue:
                prior = existing.get(task.key())
                if prior is not None and (
                    prior.status in (SAT, UNSAT)
                    or (sat_size is not None and (prior.reason or "").startswith(_CANCELLED))
                ):
                    outcome.results.append(prior)
                    if prior.status == SAT and sat_size is None:
                        sat_size = task.size
                elif sat_size is not None:
                    answer(task, UNKNOWN, None, f"{_CANCELLED} {sat_size}", 0.0)
                else:
                    fresh.append(task)
            queue[:] = fresh
        heads = schedule()
        while in_flight := {w.conn: w for w in pool if w.task is not None}:
            if not any(pending.values()):
                # no task is left to answer: what still runs settles nothing
                now = time.monotonic()
                outcome.stray_s += sum(now - w.started for w in in_flight.values())
                break
            due = min([answering[w.task].deadline for w in in_flight.values()]
                      + [state.deadline for state in heads])
            wait = max(0.0, due - time.monotonic()) if due < math.inf else None
            for conn in conn_wait(list(in_flight), timeout=wait):
                worker = in_flight.pop(conn)
                task, lattice, payload = worker.task, worker.lattice, worker.receive()
                worker.task = None
                seconds = (payload or {}).get("seconds", time.monotonic() - worker.started)
                if payload is None or payload["status"] == ERROR:
                    worker.stop()  # dead, or its process may be what failed
                    pool.remove(worker)
                finish(task, lattice, *_verdict(task, payload), seconds)
            now = time.monotonic()
            for worker in in_flight.values():
                if now >= answering[worker.task].deadline:
                    worker.stop()
                    pool.remove(worker)
                    finish(worker.task, worker.lattice, UNKNOWN, None,
                           f"timeout after {config.timeout}s", now - worker.started)
            heads = schedule()
    finally:
        handle.close()
        for worker in pool:
            worker.stop()
    return outcome
