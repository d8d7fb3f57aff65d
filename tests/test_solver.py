import itertools
import os
import stat

import pytest

import resbinar.solver
from resbinar.encoder import CnfInstance, SearchTask, encode_search
from resbinar.solver import (
    DEFAULT_ENGINE,
    SAT,
    UNSAT,
    UNKNOWN,
    OutputParseError,
    SolveBudget,
    SolveResult,
    SolverSpawnError,
    check_assignment,
    parse_solver_output,
    solve,
    solve_builtin,
    solve_external,
    solve_pysat,
)

from conftest import require_installed_package


def tiny_sat():
    return CnfInstance.from_clauses(2, [(1, 2), (-1,)])


def tiny_unsat():
    return CnfInstance.from_clauses(1, [(1,), (-1,)])


def pigeonhole(pigeons, holes):
    """Each pigeon in a hole, no hole shared; UNSAT when pigeons > holes."""
    def var(i, j):
        return i * holes + j + 1

    cnf = CnfInstance(pigeons * holes)
    for i in range(pigeons):
        cnf.add_clause([var(i, j) for j in range(holes)])
    for j in range(holes):
        for a, b in itertools.combinations(range(pigeons), 2):
            cnf.add_clause([-var(a, j), -var(b, j)])
    return cnf


def test_solve_result_invariant():
    with pytest.raises(ValueError):
        SolveResult(SAT)
    with pytest.raises(ValueError):
        SolveResult(UNSAT, assignment=(True,))


def test_check_assignment():
    cnf = tiny_sat()
    assert check_assignment(cnf, (False, True))
    assert not check_assignment(cnf, (True, False))


def test_builtin_sat():
    res = solve_builtin(tiny_sat())
    assert res.status == SAT
    assert res.assignment == (False, True)
    assert res.stats["decisions"] >= 0


def test_builtin_unsat():
    assert solve_builtin(tiny_unsat()).status == UNSAT
    assert solve_builtin(pigeonhole(5, 4)).status == UNSAT


def test_builtin_rejects_its_own_bad_assignment(monkeypatch):
    monkeypatch.setattr(resbinar.solver, "check_assignment", lambda cnf, a: False)
    with pytest.raises(OutputParseError):
        solve_builtin(tiny_sat())


def test_builtin_pigeonhole_sat_when_it_fits():
    res = solve_builtin(pigeonhole(4, 4))
    assert res.status == SAT
    assert check_assignment(pigeonhole(4, 4), res.assignment)


def test_builtin_decision_budget_yields_unknown():
    res = solve_builtin(pigeonhole(6, 5), SolveBudget(max_decisions=1))
    assert res.status == UNKNOWN
    assert "budget" in res.reason


def test_builtin_on_encoder_instance():
    cnf = encode_search(SearchTask(3))
    res = solve_builtin(cnf)
    assert res.status == SAT


def test_pysat_sat_unsat():
    pytest.importorskip("pysat")
    assert solve_pysat(tiny_sat()).status == SAT
    assert solve_pysat(tiny_unsat()).status == UNSAT
    assert solve_pysat(pigeonhole(5, 4), engine="minisat22").status == UNSAT


def test_pysat_unknown_engine():
    with pytest.raises(SolverSpawnError):
        solve_pysat(tiny_sat(), engine="definitely-not-a-solver")


def test_parse_solver_output_sat():
    res = parse_solver_output("c comment\ns SATISFIABLE\nv 1 -2\nv 3 0\n")
    assert res.status == SAT
    assert res.assignment == (True, False, True)


def test_parse_solver_output_unsat_and_unknown():
    assert parse_solver_output("s UNSATISFIABLE\n").status == UNSAT
    res = parse_solver_output("s UNKNOWN\n")
    assert res.status == UNKNOWN


def test_parse_solver_output_requires_status():
    with pytest.raises(OutputParseError):
        parse_solver_output("c nothing to see\n")


def script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def test_external_sat_with_model_check(tmp_path):
    cmd = script(tmp_path, "fake-sat", 'echo "s SATISFIABLE"\necho "v -1 2 0"\nexit 10\n')
    res = solve_external(tiny_sat(), cmd)
    assert res.status == SAT
    assert res.assignment == (False, True)


def test_external_rejects_lying_model(tmp_path):
    cmd = script(tmp_path, "fake-liar", 'echo "s SATISFIABLE"\necho "v 1 -2 0"\nexit 10\n')
    with pytest.raises(OutputParseError):
        solve_external(tiny_sat(), cmd)


def test_external_exit_code_20_fallback(tmp_path):
    cmd = script(tmp_path, "fake-unsat", "exit 20\n")
    assert solve_external(tiny_unsat(), cmd).status == UNSAT


def test_external_exit_10_without_model(tmp_path):
    cmd = script(tmp_path, "fake-silent", "exit 10\n")
    with pytest.raises(OutputParseError):
        solve_external(tiny_sat(), cmd)


def test_external_missing_binary():
    with pytest.raises(SolverSpawnError):
        solve_external(tiny_sat(), "/no/such/solver")


def test_external_file_token_substitution(tmp_path):
    cmd = script(tmp_path, "fake-echoing", 'cat "$1" > /dev/null\nexit 20\n')
    assert solve_external(tiny_unsat(), cmd + " {file}").status == UNSAT


def test_solve_dispatcher(tmp_path, monkeypatch):
    assert solve(tiny_sat(), "builtin").status == SAT
    # pysat specs must reach solve_pysat with the right engine; real pysat
    # answers are checked by test_pysat_sat_unsat
    calls = []

    def record(cnf, engine):
        calls.append(engine)
        return SolveResult(UNSAT)

    monkeypatch.setattr(resbinar.solver, "solve_pysat", record)
    assert solve(tiny_unsat(), "pysat").status == UNSAT
    assert solve(tiny_unsat(), "pysat:minisat22").status == UNSAT
    assert calls == [DEFAULT_ENGINE, "minisat22"]
    cmd = script(tmp_path, "fake-unsat", "exit 20\n")
    assert solve(tiny_unsat(), cmd).status == UNSAT


def test_solve_via_bundled_dimacs_frontend():
    require_installed_package()
    pytest.importorskip("pysat")
    # the console entry point speaks the SAT-competition conventions
    assert solve(tiny_sat(), "rbsat {file}").status == SAT
    assert solve(tiny_unsat(), "rbsat {file}").status == UNSAT


def test_agreement_between_backends():
    pytest.importorskip("pysat")
    for task in (SearchTask(2), SearchTask.make(3, refute="D1"),
                 SearchTask.make(3, assume=("LD",))):
        cnf = encode_search(task)
        a = solve_builtin(cnf).status
        b = solve_pysat(cnf).status
        assert a == b
