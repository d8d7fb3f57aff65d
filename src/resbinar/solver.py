"""SAT decision procedures over CnfInstance.

Three paths share one result type: a hermetic DPLL for air-gapped tests, an
in-process pysat backend ("pysat:<engine>"), and any external solver that
accepts a DIMACS file path.  No path ever returns SAT without re-checking
the assignment against every clause.  No path keeps a clock: a time limit
is the orchestrator's, which kills the worker process running the solve.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .encoder import CnfInstance, write_dimacs_file

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

DEFAULT_ENGINE = "kissat404"


class SolverSpawnError(RuntimeError):
    pass


class OutputParseError(ValueError):
    pass


@dataclass(frozen=True)
class SolveBudget:
    """Resource ceiling; exceeding it yields UNKNOWN, never a wrong answer."""

    max_decisions: int | None = None


@dataclass(frozen=True)
class SolveResult:
    status: str
    assignment: tuple[bool, ...] | None = None
    stats: Mapping[str, float] = field(default_factory=dict)
    reason: str | None = None

    def __post_init__(self):
        if (self.assignment is not None) != (self.status == SAT):
            raise ValueError("assignment present iff status is SAT")


def check_assignment(cnf: CnfInstance, assignment: tuple[bool, ...]) -> bool:
    """True when every clause has a true literal under the assignment; a
    variable beyond the end of the assignment makes no literal true."""
    size = max(cnf.num_vars, len(assignment))
    true = bytearray(2 * size + 1)  # indexed by literal, as in solve_builtin
    true[1:len(assignment) + 1] = bytes(assignment)
    true[2 * size + 1 - len(assignment):] = bytes(not a for a in reversed(assignment))
    for clause in cnf.iter_clauses():
        for lit in clause:
            if true[lit]:
                break
        else:
            return False
    return True


def _propagate(trail: list[int], qhead: int, value: bytearray,
               watches: list[list[int]], clauses: list[list[int]]) -> tuple[int, bool]:
    """Unit-propagate the literals trail[qhead:]; returns the new queue head
    and False on a conflict.  A clause is watched by its first two literals;
    each watch list is compacted in place, in order."""
    while qhead < len(trail):
        falsified = -trail[qhead]
        qhead += 1
        ws = watches[falsified]
        kept = i = 0
        for ci in ws:
            i += 1
            clause = clauses[ci]
            first = clause[0]
            if first == falsified:
                first = clause[0] = clause[1]
                clause[1] = falsified
            if value[first]:
                ws[kept] = ci
                kept += 1
                continue
            for k in range(2, len(clause)):
                other = clause[k]
                if not value[-other]:
                    clause[1] = other
                    clause[k] = falsified
                    watches[other].append(ci)
                    break
            else:
                ws[kept] = ci
                kept += 1
                if value[-first]:
                    del ws[kept:i]
                    return qhead, False
                value[first] = 1
                trail.append(first)
        del ws[kept:]
    return qhead, True


def solve_builtin(cnf: CnfInstance, budget: SolveBudget | None = None) -> SolveResult:
    """Plain iterative DPLL with two watched literals per clause.

    Branching is activity-free: lowest-numbered unassigned variable, True
    first.  With the encoder's variable layout that walks the meet table
    first, which keeps the derived order decided early.  Values and watch
    lists are indexed by literal (Een & Sorensson, SAT 2003): in a list of
    length 2*nvars+1, literal -v sits at Python index -v, in the upper half.
    value[lit] is 1 when lit is true and 0 when it is false or unassigned.
    """
    start = time.monotonic()
    max_decisions = budget.max_decisions if budget else None
    nvars = cnf.num_vars

    clauses: list[list[int]] = []
    watches: list[list[int]] = [[] for _ in range(2 * nvars + 1)]
    value = bytearray(2 * nvars + 1)
    trail: list[int] = []
    decisions = 0
    propagations = 0

    def stats() -> dict[str, float]:
        return {
            "decisions": decisions,
            "propagations": propagations,
            "seconds": time.monotonic() - start,
        }

    for clause in cnf.iter_clauses():
        if len(clause) == 1:
            lit = clause[0]
            if value[-lit]:
                return SolveResult(UNSAT, stats=stats())
            if not value[lit]:
                value[lit] = 1
                trail.append(lit)
        else:
            ci = len(clauses)  # one int object shared by both watches
            watches[clause[0]].append(ci)
            watches[clause[1]].append(ci)
            clauses.append(list(clause))

    qhead, ok = _propagate(trail, 0, value, watches, clauses)
    propagations = qhead
    if not ok:
        return SolveResult(UNSAT, stats=stats())

    # decision stack entries: [trail length at decision, var, flipped]
    stack: list[list[int]] = []
    scan_from = 1

    while True:
        if max_decisions is not None and decisions > max_decisions:
            return SolveResult(UNKNOWN, stats=stats(), reason="decision budget exceeded")
        var = scan_from
        while var <= nvars and (value[var] or value[-var]):
            var += 1
        scan_from = var
        if var > nvars:
            assignment = tuple(map(bool, value[1:nvars + 1]))
            if not check_assignment(cnf, assignment):
                raise OutputParseError("bundled DPLL produced a non-satisfying assignment")
            return SolveResult(SAT, assignment=assignment, stats=stats())
        decisions += 1
        stack.append([len(trail), var, 0])
        value[var] = 1
        trail.append(var)
        while True:
            head, ok = _propagate(trail, qhead, value, watches, clauses)
            propagations += head - qhead
            qhead = head
            if ok:
                break
            # undo up to the deepest decision not yet flipped, and flip it;
            # every variable below a decision was assigned before it
            while stack and stack[-1][2]:
                stack.pop()
            if not stack:
                return SolveResult(UNSAT, stats=stats())
            mark, dvar, _ = stack[-1]
            stack[-1][2] = 1
            for lit in trail[mark:]:
                value[lit] = 0
            del trail[mark:]
            qhead, scan_from = mark, dvar
            value[-dvar] = 1
            trail.append(-dvar)


def _pad_assignment(pairs: Mapping[int, bool], nvars: int) -> tuple[bool, ...]:
    return tuple(bool(pairs.get(v, False)) for v in range(1, nvars + 1))


def solve_pysat(cnf: CnfInstance, engine: str = DEFAULT_ENGINE) -> SolveResult:
    """In-process solve via a pysat engine; fastest path for big instances."""
    try:
        from pysat.solvers import Solver
    except ImportError as exc:
        raise SolverSpawnError(f"pysat unavailable: {exc}") from None
    start = time.monotonic()
    try:
        solver = Solver(name=engine, bootstrap_with=cnf.iter_clauses())
    except Exception as exc:
        raise SolverSpawnError(f"engine {engine!r} failed to start: {exc}") from None
    with solver:
        outcome = solver.solve()
        seconds = time.monotonic() - start
        if not outcome:
            return SolveResult(UNSAT, stats={"seconds": seconds})
        model = solver.get_model() or []
    assignment = _pad_assignment({abs(l): l > 0 for l in model}, cnf.num_vars)
    if not check_assignment(cnf, assignment):
        raise OutputParseError(f"engine {engine!r} returned a non-satisfying model")
    return SolveResult(SAT, assignment=assignment, stats={"seconds": seconds})


def parse_solver_output(text: str) -> SolveResult:
    """Decode SAT-competition conventions: `s` status line, `v` value lines."""
    status = None
    values: dict[int, bool] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s ") or line == "s":
            word = line[2:].strip().upper()
            if word == "SATISFIABLE":
                status = SAT
            elif word == "UNSATISFIABLE":
                status = UNSAT
            elif word:
                status = UNKNOWN
        elif line.startswith("v ") or line == "v":
            for token in line[2:].split():
                lit = int(token)
                if lit == 0:
                    break
                values[abs(lit)] = lit > 0
    if status is None:
        raise OutputParseError("no status line in solver output")
    if status == SAT:
        nvars = max(values) if values else 0
        return SolveResult(SAT, assignment=_pad_assignment(values, nvars))
    if status == UNSAT:
        return SolveResult(UNSAT)
    return SolveResult(UNKNOWN, reason="solver reported unknown")


def solve_external(cnf: CnfInstance, command: str) -> SolveResult:
    """Run `command` on a DIMACS temp file and parse its verdict.

    The token {file} in the command is replaced by the instance path; when
    absent the path is appended.  Exit codes 10/20 stand in for a missing
    status line.
    """
    start = time.monotonic()
    argv = shlex.split(command)
    if not argv:
        raise SolverSpawnError("empty solver command")
    with tempfile.TemporaryDirectory(prefix="rbsat-") as tmp:
        path = str(Path(tmp) / "instance.cnf")
        write_dimacs_file(cnf, path)
        if any("{file}" in token for token in argv):
            argv = [token.replace("{file}", path) for token in argv]
        else:
            argv = argv + [path]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True)
        except (FileNotFoundError, PermissionError, NotADirectoryError) as exc:
            raise SolverSpawnError(f"cannot run {argv[0]!r}: {exc}") from None
    seconds = time.monotonic() - start
    try:
        result = parse_solver_output(proc.stdout)
    except OutputParseError:
        if proc.returncode == 10:
            raise OutputParseError(
                "solver exited 10 (SAT) without printing a model"
            ) from None
        if proc.returncode == 20:
            return SolveResult(UNSAT, stats={"seconds": seconds})
        raise
    if result.status == SAT:
        assignment = result.assignment
        if len(assignment) < cnf.num_vars:
            assignment = assignment + (False,) * (cnf.num_vars - len(assignment))
        if not check_assignment(cnf, assignment):
            raise OutputParseError("external model does not satisfy the instance")
        return SolveResult(SAT, assignment=assignment, stats={"seconds": seconds})
    return SolveResult(result.status, stats={"seconds": seconds}, reason=result.reason)


def solve(cnf: CnfInstance, spec: str = "builtin") -> SolveResult:
    """Dispatch on a solver spec string.

    "builtin" runs the DPLL; "pysat" or "pysat:<engine>" runs in-process
    CDCL; anything else is an external command template.
    """
    if spec == "builtin":
        return solve_builtin(cnf)
    if spec == "pysat":
        return solve_pysat(cnf, DEFAULT_ENGINE)
    if spec.startswith("pysat:"):
        return solve_pysat(cnf, spec.split(":", 1)[1])
    return solve_external(cnf, spec)
