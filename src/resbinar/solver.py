"""SAT decision procedures over CnfInstance.

Three backends share one result type: a bundled pure-Python CDCL that
works on an air-gapped machine, an in-process pysat engine
("pysat:<engine>"), and any external solver that accepts a DIMACS file
path.  Only the bundled CDCL reads CnfInstance.symmetries, the variable
permutations an encoding without symmetry breaking exports: it learns
each conflict once for every image under them, trusting the producer
that they map the clause set onto itself and checking only their shape.
Every SAT answer leaves through `_answer`, which sizes the
assignment to the instance's variables and re-checks it against every
clause.  No backend keeps a clock: a time limit is the orchestrator's,
which kills the worker process running the solve.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .encoder import CnfInstance, write_dimacs_file

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

DEFAULT_ENGINE = "kissat404"
DEFAULT_SOLVER = f"pysat:{DEFAULT_ENGINE}"


class SolverSpawnError(RuntimeError):
    pass


class OutputParseError(ValueError):
    pass


class _NoStatusLine(OutputParseError):
    """Solver output without an `s` line, where an exit code may stand in."""


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


def _answer(cnf: CnfInstance, values: Iterable[bool] | Mapping[int, bool], who: str,
            stats: Mapping[str, float]) -> SolveResult:
    """The SAT result of every backend.  values is a truth value per
    variable from 1 (builtin), or a mapping from variable to value (pysat,
    external) in which a variable left out is False and one past num_vars
    is dropped.  An assignment that leaves a clause false raises."""
    if isinstance(values, Mapping):
        assignment = tuple(values.get(v, False) for v in range(1, cnf.num_vars + 1))
    else:
        assignment = tuple(map(bool, values))
    if not check_assignment(cnf, assignment):
        raise OutputParseError(f"{who} returned an assignment that does not satisfy the instance")
    return SolveResult(SAT, assignment=assignment, stats=stats)


def _propagate(trail: list[int], qhead: int, value: bytearray, watches: list[list[list[int]]],
               reason: list[list[int] | None], level: list[int],
               dl: int) -> tuple[int, list[int] | None]:
    """Unit-propagate the literals trail[qhead:] at decision level dl;
    returns the new queue head and a falsified clause, or None.

    A clause is watched by its first two literals, and watch lists and
    reasons hold the clause lists themselves.  A visit whose other watch is
    true only reads.  Any other visit first puts the falsified watch second,
    then moves that watch to a literal that is not false, or implies the
    first literal, which then sits first in its reason, or reports the
    conflict.  A watch that moves is blanked in place, and a list that lost
    any is compacted once, in order, before it is left.
    """
    while qhead < len(trail):
        falsified = -trail[qhead]
        qhead += 1
        ws = watches[falsified]
        moved = False
        i = -1
        for clause in ws:
            i += 1
            first = clause[0]
            if first == falsified:
                first = clause[1]
                if value[first]:
                    continue
                clause[0] = first
                clause[1] = falsified
            elif value[first]:
                continue
            for k in range(2, len(clause)):
                other = clause[k]
                if not value[-other]:
                    clause[1] = other
                    clause[k] = falsified
                    watches[other].append(clause)
                    ws[i] = None
                    moved = True
                    break
            else:
                if value[-first]:
                    if moved:
                        watches[falsified] = [*filter(None, ws)]
                    return qhead, clause
                value[first] = 1
                reason[first] = clause
                level[first] = dl
                trail.append(first)
        if moved:
            watches[falsified] = [*filter(None, ws)]
    return qhead, None


def _analyze(conflict: list[int], trail: list[int], reason: list[list[int] | None],
             level: list[int], dl: int, seen: bytearray) -> list[int]:
    """First-UIP clause of a conflict on the falsified clause conflict
    (Marques-Silva & Sakallah, GRASP 1999): resolve backwards along the
    trail until one literal of level dl is left.  Its negation comes first
    in the result; the rest are false at lower levels.  Level-0 literals are
    left out, as they are false for good.  seen is indexed by the true
    literal and comes back all zero."""
    learnt = [0]
    pending = 0
    idx = len(trail)
    lits = conflict
    while True:
        for q in lits:
            t = -q
            if not seen[t] and level[t]:
                seen[t] = 1
                if level[t] == dl:
                    pending += 1
                else:
                    learnt.append(q)
        idx -= 1
        while not seen[trail[idx]]:
            idx -= 1
        p = trail[idx]
        seen[p] = 0
        pending -= 1
        if not pending:
            break
        lits = reason[p][1:]
    learnt[0] = -p
    for q in learnt[1:]:
        seen[-q] = 0
    return learnt


def _literal_maps(symmetries, nvars: int) -> list[list[int]]:
    """Each variable permutation as a map on literals, indexed by literal as
    value is.  A permutation that is not of length nvars + 1, or not a
    bijection fixing 0, raises ValueError; that it maps the clause set onto
    itself is the producer's guarantee."""
    maps = []
    for perm in symmetries:
        perm = list(perm)
        if len(perm) != nvars + 1 or perm[0] != 0 or sorted(perm) != list(range(nvars + 1)):
            raise ValueError("a symmetry must be a permutation of the variables "
                             f"0..{nvars} that fixes 0")
        maps.append(perm + [-v for v in reversed(perm[1:])])
    return maps


def _orbit(clause: list[int], maps: list[list[int]]) -> list[list[int]]:
    """The images of clause under the group the literal maps generate,
    other than clause itself: breadth first over the generators, each
    literal set once."""
    seen = {frozenset(clause)}
    queue = [clause]
    for known in queue:
        for lmap in maps:
            image = [lmap[lit] for lit in known]
            key = frozenset(image)
            if key not in seen:
                seen.add(key)
                queue.append(image)
    return queue[1:]


def _watch_image(image: list[int], value: bytearray, level: list[int],
                 watches: list[list[list[int]]]) -> None:
    """Watch a learned clause's image on two literals that are not false,
    or on its one true literal and its highest-level false literal.  An
    image that is unit or false under the current assignment is left out:
    it is implied by the CNF, so leaving it out loses no answer."""
    free = [lit for lit in image if not value[-lit]]
    if len(free) < 2:
        if not free or not value[free[0]]:
            return
        free.append(max((lit for lit in image if lit != free[0]), key=lambda lit: level[-lit]))
    a, b = free[0], free[1]
    image[:] = [a, b, *(lit for lit in image if lit != a and lit != b)]
    watches[a].append(image)
    watches[b].append(image)


def solve_builtin(cnf: CnfInstance, budget: SolveBudget | None = None) -> SolveResult:
    """Deterministic CDCL with two watched literals per clause.

    Branching is activity-free and there are no restarts: the lowest-numbered
    unassigned variable is decided, True the first time and then with the
    polarity it last had (phase saving).  With the encoder's variable layout
    that walks the meet table first, which keeps the derived order decided
    early.  Each conflict adds its first-UIP clause, watched like the
    others and never deleted, and jumps back to the second-highest level in
    it.  Values, levels, reasons and watch lists are indexed by literal
    (Een & Sorensson, SAT 2003): in a list of length 2*nvars+1, literal -v
    sits at Python index -v, in the upper half.  value[lit] is 1 when lit is
    true and 0 when it is false or unassigned; level[lit] and reason[lit]
    hold for a true lit.  Watch lists and reasons hold the clause lists
    themselves, not indices.  Every SAT answer is re-checked against the CNF.

    Symmetric learning (cf. Devriendt, Bogaerts & Bruynooghe, "Symmetric
    Explanation Learning", SAT 2017): when cnf.symmetries is not empty,
    each learned clause is followed by the rest of its orbit under the
    group those permutations generate, since the CNF implies every image
    of a clause it implies.  A unit image is asserted at level 0, and one
    that is false there makes the answer UNSAT; a longer one goes through
    _watch_image.  That the permutations map the clause set onto itself is
    the producer's guarantee (see CnfInstance); only their shape is
    checked, and a bad one raises ValueError.

    The decision budget is tested just before a decision, so a solve with
    max_decisions=m makes at most m decisions.
    """
    start = time.monotonic()
    max_decisions = budget.max_decisions if budget else None
    nvars = cnf.num_vars
    maps = _literal_maps(cnf.symmetries, nvars)

    watches: list[list[list[int]]] = [[] for _ in range(2 * nvars + 1)]
    value = bytearray(2 * nvars + 1)
    level = [0] * (2 * nvars + 1)
    reason: list[list[int] | None] = [None] * (2 * nvars + 1)
    seen = bytearray(2 * nvars + 1)
    phase = bytearray(b"\x01") * (nvars + 1)
    trail: list[int] = []
    trail_lim: list[int] = []  # trail length when each level's decision was made
    decisions = propagations = conflicts = 0

    def stats() -> dict[str, float]:
        return {
            "decisions": decisions,
            "propagations": propagations,
            "conflicts": conflicts,
            "seconds": time.monotonic() - start,
        }

    for clause in cnf.clause_lists():
        if len(clause) == 1:
            lit = clause[0]
            if value[-lit]:
                return SolveResult(UNSAT, stats=stats())
            if not value[lit]:
                value[lit] = 1
                trail.append(lit)
        else:
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)

    qhead = 0
    scan_from = 1
    while True:
        dl = len(trail_lim)
        head, conflict = _propagate(trail, qhead, value, watches, reason, level, dl)
        propagations += head - qhead
        qhead = head
        if conflict is not None:
            conflicts += 1
            if not dl:
                return SolveResult(UNSAT, stats=stats())
            learnt = _analyze(conflict, trail, reason, level, dl, seen)
            unit = learnt[0]
            back = 0
            if len(learnt) > 1:
                top = max(range(1, len(learnt)), key=lambda k: level[-learnt[k]])
                learnt[1], learnt[top] = learnt[top], learnt[1]
                back = level[-learnt[1]]
                reason[unit] = learnt
                watches[unit].append(learnt)
                watches[learnt[1]].append(learnt)
            mark = trail_lim[back]
            # every variable below a level's decision variable was assigned
            # at a lower level, so the scan resumes at the first one undone
            scan_from = abs(trail[mark])
            for lit in trail[mark:]:
                value[lit] = 0
                if lit > 0:
                    phase[lit] = 1
                else:
                    phase[-lit] = 0
            del trail[mark:], trail_lim[back:]
            qhead = mark
            value[unit] = 1
            level[unit] = back
            trail.append(unit)
            if maps:
                for image in _orbit(learnt, maps):
                    if len(image) > 1:
                        _watch_image(image, value, level, watches)
                        continue
                    lit = image[0]  # a unit learnt: back is 0
                    if value[-lit]:
                        return SolveResult(UNSAT, stats=stats())
                    if not value[lit]:
                        value[lit] = 1
                        level[lit] = 0
                        trail.append(lit)
            continue
        var = scan_from
        while var <= nvars and (value[var] or value[-var]):
            var += 1
        scan_from = var
        if var > nvars:
            return _answer(cnf, value[1:nvars + 1], "bundled CDCL", stats())
        if max_decisions is not None and decisions >= max_decisions:
            return SolveResult(UNKNOWN, stats=stats(), reason="decision budget exceeded")
        decisions += 1
        trail_lim.append(len(trail))
        lit = var if phase[var] else -var
        value[lit] = 1
        level[lit] = dl + 1
        trail.append(lit)


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
        stats = {"seconds": time.monotonic() - start}
        if not outcome:
            return SolveResult(UNSAT, stats=stats)
        model = solver.get_model() or []
    return _answer(cnf, {abs(l): l > 0 for l in model}, f"engine {engine!r}", stats)


def parse_solver_output(text: str) -> tuple[str, dict[int, bool], str | None]:
    """Decode SAT-competition conventions, an `s` status line and `v` value
    lines, into (status, value per variable named, reason)."""
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
                try:
                    lit = int(token)
                except ValueError:
                    raise OutputParseError(f"bad literal {token!r} in a value line") from None
                if lit == 0:
                    break
                values[abs(lit)] = lit > 0
    if status is None:
        raise _NoStatusLine("no status line in solver output")
    return status, values, "solver reported unknown" if status == UNKNOWN else None


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
    with tempfile.TemporaryDirectory(prefix="resbinar-") as tmp:
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
    stats = {"seconds": time.monotonic() - start}
    try:
        status, values, reason = parse_solver_output(proc.stdout)
    except _NoStatusLine:
        if proc.returncode == 10:
            raise OutputParseError(
                "solver exited 10 (SAT) without printing a model"
            ) from None
        if proc.returncode == 20:
            return SolveResult(UNSAT, stats=stats)
        raise
    if status == SAT:
        return _answer(cnf, values, f"external solver {argv[0]!r}", stats)
    return SolveResult(status, stats=stats, reason=reason)


def solve(cnf: CnfInstance, spec: str = "builtin") -> SolveResult:
    """Dispatch on a solver spec string.

    "builtin" runs the bundled CDCL (solve_builtin); "pysat" or
    "pysat:<engine>" runs an in-process pysat engine; anything else is an
    external command template.
    """
    if spec == "builtin":
        return solve_builtin(cnf)
    if spec == "pysat":
        return solve_pysat(cnf, DEFAULT_ENGINE)
    if spec.startswith("pysat:"):
        return solve_pysat(cnf, spec.split(":", 1)[1])
    return solve_external(cnf, spec)
