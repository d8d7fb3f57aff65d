import hashlib
import itertools
import os
import random
import stat
import sys
import types

import pytest

import resbinar.solver
from resbinar.encoder import CnfInstance, EncodeOptions, SearchTask, encode_search
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
from resbinar.terms import DISTRIBUTIVITY_NAMES, IDENTITY_NAMES


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
    # as on the external-solver path: a variable past the end of the
    # assignment makes neither of its literals true
    cnf = CnfInstance.from_clauses(4, [(1, 4), (2, -4)])
    assert check_assignment(cnf, (True, True))
    assert not check_assignment(cnf, (True, False))
    assert not check_assignment(cnf, ())
    assert check_assignment(cnf, (True, True, False, False, True))
    assert not check_assignment(CnfInstance.from_clauses(3, [(-3,)]), (True,))


def test_builtin_sat():
    res = solve_builtin(tiny_sat())
    assert res.status == SAT
    assert res.assignment == (False, True)
    assert res.stats["decisions"] >= 0
    assert 0 <= res.stats["seconds"] < 60


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


def satisfiable_by_enumeration(cnf):
    """Whether some assignment satisfies cnf, trying all 2**num_vars at once:
    bit a of a mask stands for the assignment whose bit i is the value of
    variable i + 1."""
    n = cnf.num_vars
    size = 1 << n
    everything = (1 << size) - 1
    true_where = []
    for i in range(n):
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)  # 2**i zeros, then 2**i ones
        true_where.append(block * (everything // ((1 << period) - 1)))
    alive = everything
    for clause in cnf.iter_clauses():
        sat = 0
        for lit in clause:
            mask = true_where[abs(lit) - 1]
            sat |= mask if lit > 0 else everything ^ mask
        alive &= sat
    return alive != 0


def random_3cnf(rng, nvars):
    """Uniform random 3-CNF with 5 clauses per variable, each over three
    distinct variables: for 8 to 14 variables about half are satisfiable
    there, above the asymptotic threshold of 4.26."""
    cnf = CnfInstance(nvars)
    for _ in range(5 * nvars):
        cnf.add_clause([v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, nvars + 1), 3)])
    return cnf


def random_mixed_cnf(rng, nvars):
    """Random CNF of 1- to 5-literal clauses over distinct variables, units
    and binaries among longer ones as in the encoder's output, 4.8 clauses
    per variable: for 8 to 14 variables about half are satisfiable."""
    cnf = CnfInstance(nvars)
    for _ in range(24 * nvars // 5):
        width = rng.choices((1, 2, 3, 4, 5), weights=(1, 4, 10, 8, 6))[0]
        cnf.add_clause([v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, nvars + 1), width)])
    return cnf


def random_symmetric_cnf(rng, nvars):
    """Random 3-literal clauses, each added with its orbit under one or two
    variable permutations until there are 10 clauses per variable; each
    permutation is a cycle on 2 to 5 random variables, and they come back
    as the instance's symmetries.  Orbits share literals, so a closed set
    is satisfiable more often than an independent one of its size: for 12
    to 16 variables about a third are UNSAT."""
    perms = []
    for _ in range(rng.randint(1, 2)):
        moved = rng.sample(range(1, nvars + 1), rng.randint(2, 5))
        perm = list(range(nvars + 1))
        for a, b in zip(moved, moved[1:] + moved[:1]):
            perm[a] = b
        perms.append(perm)
    clauses = {}
    while len(clauses) < 10 * nvars:
        seed = frozenset(v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, nvars + 1), 3))
        orbit = [seed]
        for clause in orbit:
            for perm in perms:
                image = frozenset(perm[l] if l > 0 else -perm[-l] for l in clause)
                if image not in orbit:
                    orbit.append(image)
        clauses.update(dict.fromkeys(orbit))
    cnf = CnfInstance.from_clauses(nvars, map(sorted, clauses))
    cnf.symmetries = tuple(perms)
    return cnf


def assert_verdicts_match_enumeration(family, sizes=(8, 14)):
    """Solve 300 CNFs drawn from family(rng, nvars), nvars in sizes, and
    check each verdict by enumeration; both verdicts must be well
    represented, so that neither side goes untested."""
    rng = random.Random(20260418)
    verdicts = {SAT: 0, UNSAT: 0}
    for _ in range(300):
        cnf = family(rng, rng.randint(*sizes))
        res = solve_builtin(cnf)
        assert res.status == (SAT if satisfiable_by_enumeration(cnf) else UNSAT)
        verdicts[res.status] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_builtin_verdicts_match_exhaustive_enumeration():
    """A referee for the learning kernel: a learned clause the CNF does not
    imply or a wrong backjump turns up as a wrong verdict somewhere here."""
    assert_verdicts_match_enumeration(random_3cnf)
    for k in range(1, 6):
        if k <= 3:
            assert not satisfiable_by_enumeration(pigeonhole(k + 1, k))
        assert solve_builtin(pigeonhole(k + 1, k)).status == UNSAT
        assert solve_builtin(pigeonhole(k, k)).status == SAT


def test_builtin_verdicts_on_mixed_clause_lengths_match_enumeration():
    """The referee again, on watch lists that mix units, binaries and long
    clauses, where a conflict returns from a list that lost watches."""
    assert_verdicts_match_enumeration(random_mixed_cnf)


def test_builtin_verdicts_under_symmetric_learning_match_enumeration(monkeypatch):
    """The referee for symmetric learning: every learned clause brings its
    orbit under the instance's symmetries, so an image with a wrong literal
    turns up as a wrong verdict, and one watched so that a conflict is
    missed as a SAT answer that _answer rejects.  A watch on a false literal
    while a non-false one exists only loses propagations, so each image's
    watches are also checked against the rule, and each branch of the rule
    must be taken."""
    watch_image = resbinar.solver._watch_image
    taken = {"two free": 0, "true and false": 0, "left out": 0}

    def checked(image, value, level, watches):
        before = list(image)
        watch_image(image, value, level, watches)
        free = [lit for lit in before if not value[-lit]]
        watched = any(clause is image for clause in watches[image[0]])
        assert sorted(image) == sorted(before)
        if len(free) >= 2:
            taken["two free"] += 1
            assert watched and not value[-image[0]] and not value[-image[1]]
        elif free and value[free[0]]:
            taken["true and false"] += 1
            top = max(level[-lit] for lit in before if lit != free[0])
            other = image[1] if image[0] == free[0] else image[0]
            assert watched and free[0] in image[:2] and level[-other] == top
        else:
            taken["left out"] += 1
            assert not watched
        assert watched == any(clause is image for clause in watches[image[1]])

    monkeypatch.setattr(resbinar.solver, "_watch_image", checked)
    assert_verdicts_match_enumeration(random_symmetric_cnf, (12, 16))
    assert min(taken.values()) > 0, taken


def test_builtin_rejects_a_symmetry_that_is_no_permutation():
    for perm in ((0, 2, 1, 3), (0, 1), (0, 1, 1), (1, 0, 2), (0, 1, 3)):
        cnf = CnfInstance.from_clauses(2, [(1, 2)])
        cnf.symmetries = ((0, 2, 1), perm)
        with pytest.raises(ValueError, match="permutation"):
            solve_builtin(cnf)


def test_builtin_decision_budget_yields_unknown():
    res = solve_builtin(pigeonhole(6, 5), SolveBudget(max_decisions=1))
    assert res.status == UNKNOWN
    assert "budget" in res.reason


def test_builtin_decision_budget_is_a_ceiling():
    # two decisions finish this assignment: a budget of one stops before
    # the second, and a budget of two lets the solve end SAT
    cnf = CnfInstance.from_clauses(2, [(1, 2)])
    res = solve_builtin(cnf, SolveBudget(max_decisions=1))
    assert res.status == UNKNOWN
    assert res.stats["decisions"] == 1
    res = solve_builtin(cnf, SolveBudget(max_decisions=2))
    assert res.status == SAT
    assert res.stats["decisions"] == 2


def test_builtin_on_encoder_instance():
    cnf = encode_search(SearchTask(3))
    res = solve_builtin(cnf)
    assert res.status == SAT


# (status, decisions, propagations, SHA-256 of the assignment's bytes) of
# solve_builtin, recorded when the kernel became a CDCL; the statuses are
# those of the DPLL before it.  Any change to the search itself shows.  The
# 13 UNSAT entries without symmetry breaking were recorded again when the
# kernel began learning each conflict's orbit under the carrier relabelings.
SEARCH_PINS = {
    ("assume D1", True): (
        "SAT", 9, 378,
        "c861937f8a28d4a418a24c7928be9b8177c8d922514b2f9025291c100ebb08f0"),
    ("assume D1", False): (
        "SAT", 9, 464,
        "a1ff980dfd1900072ab9de4ac1f656fc42b11507f9e32943db190060ddedc926"),
    ("refute D1", True): ("UNSAT", 28, 1327, None),
    ("refute D1", False): ("UNSAT", 39, 2117, None),
    ("assume D2", True): (
        "SAT", 9, 378,
        "c861937f8a28d4a418a24c7928be9b8177c8d922514b2f9025291c100ebb08f0"),
    ("assume D2", False): (
        "SAT", 9, 464,
        "a1ff980dfd1900072ab9de4ac1f656fc42b11507f9e32943db190060ddedc926"),
    ("refute D2", True): ("UNSAT", 35, 1776, None),
    ("refute D2", False): ("UNSAT", 43, 2396, None),
    ("assume D3", True): (
        "SAT", 9, 378,
        "8d057701cc5880958496d1075cc5d4a165b7a43505444476c5e1a4b460e374ca"),
    ("assume D3", False): (
        "SAT", 9, 464,
        "af5348f3e4413a78ea2f342ba551fbf61653318c7786dd56961e203a8b6c8a5a"),
    ("refute D3", True): ("UNSAT", 20, 1388, None),
    ("refute D3", False): ("UNSAT", 29, 1494, None),
    ("assume D4", True): (
        "SAT", 9, 378,
        "8d057701cc5880958496d1075cc5d4a165b7a43505444476c5e1a4b460e374ca"),
    ("assume D4", False): (
        "SAT", 9, 464,
        "af5348f3e4413a78ea2f342ba551fbf61653318c7786dd56961e203a8b6c8a5a"),
    ("refute D4", True): ("UNSAT", 36, 1843, None),
    ("refute D4", False): ("UNSAT", 39, 2005, None),
    ("assume D5", True): (
        "SAT", 9, 378,
        "8d057701cc5880958496d1075cc5d4a165b7a43505444476c5e1a4b460e374ca"),
    ("assume D5", False): (
        "SAT", 9, 464,
        "af5348f3e4413a78ea2f342ba551fbf61653318c7786dd56961e203a8b6c8a5a"),
    ("refute D5", True): ("UNSAT", 34, 1906, None),
    ("refute D5", False): ("UNSAT", 36, 1903, None),
    ("assume D6", True): (
        "SAT", 9, 378,
        "8d057701cc5880958496d1075cc5d4a165b7a43505444476c5e1a4b460e374ca"),
    ("assume D6", False): (
        "SAT", 9, 464,
        "af5348f3e4413a78ea2f342ba551fbf61653318c7786dd56961e203a8b6c8a5a"),
    ("refute D6", True): ("UNSAT", 37, 2104, None),
    ("refute D6", False): ("UNSAT", 39, 1967, None),
    ("assume LD", True): (
        "SAT", 9, 378,
        "bec7eb3a7bef149b6d4b1abcfe55a896163993ff7dfba638277e91aa8f82164b"),
    ("assume LD", False): (
        "SAT", 9, 508,
        "47fc431fcdeb853d04efa2baa1d4f13d70c3fd1f9fb1636c9d995413b051a3f5"),
    ("refute LD", True): ("UNSAT", 0, 351, None),
    ("refute LD", False): ("UNSAT", 5, 767, None),
    ("others ⊢ D1", True): ("UNSAT", 28, 2286, None),
    ("others ⊢ D1", False): ("UNSAT", 44, 3895, None),
    ("others ⊢ D2", True): ("UNSAT", 35, 3113, None),
    ("others ⊢ D2", False): ("UNSAT", 48, 4228, None),
    ("others ⊢ D3", True): ("UNSAT", 20, 2675, None),
    ("others ⊢ D3", False): ("UNSAT", 29, 2849, None),
    ("others ⊢ D4", True): ("UNSAT", 35, 3613, None),
    ("others ⊢ D4", False): ("UNSAT", 56, 4187, None),
    ("others ⊢ D5", True): ("UNSAT", 34, 4314, None),
    ("others ⊢ D5", False): ("UNSAT", 36, 3508, None),
    ("others ⊢ D6", True): ("UNSAT", 37, 4181, None),
    ("others ⊢ D6", False): ("UNSAT", 56, 4305, None),
    ("n=4 LD,D1 ⊢ D3", True): (
        "SAT", 15, 2176,
        "e5a75895007f46e04621961e98d2a7fcb5bf443ebe29e04cd8f61e2bc0e6718f"),
    ("n=4 LD,D1 ⊢ D3", False): (
        "SAT", 18, 2176,
        "e5a75895007f46e04621961e98d2a7fcb5bf443ebe29e04cd8f61e2bc0e6718f"),
    ("n=4 base", True): (
        "SAT", 10, 832,
        "9b52cc463d984f9e4799e2f00576ee6bc08691d839468fd345155f3573f55ced"),
    ("n=4 base", False): (
        "SAT", 13, 832,
        "9b52cc463d984f9e4799e2f00576ee6bc08691d839468fd345155f3573f55ced"),
    # n = 4 LD tasks, symmetry on only; the two UNSAT ones learn about 200
    # clauses each.  Recorded before watch lists held clauses, not indices
    ("n=4 D4,D5,LD ⊢ D3", True): ("UNSAT", 336, 48804, None),
    ("n=4 D6,D2,LD ⊢ D1", True): ("UNSAT", 312, 40523, None),
    ("n=4 D1,D2,D4,LD ⊢ D3", True): (
        "SAT", 58, 10596,
        "2ceba1f48e7b7f170f52c093ea026725fa86a6e941d41e395ecbeef5a91a1da3"),
}


def pinned_searches():
    """Each identity assumed alone and refuted alone at n = 3, the
    criterion-3 tasks at n = 3 and two tasks at n = 4, symmetry on and off,
    and three LD tasks at n = 4 with symmetry on."""
    tasks = []
    for name in IDENTITY_NAMES:
        tasks.append((f"assume {name}", SearchTask.make(3, assume=(name,))))
        tasks.append((f"refute {name}", SearchTask.make(3, refute=name)))
    for target in DISTRIBUTIVITY_NAMES:
        others = [d for d in DISTRIBUTIVITY_NAMES if d != target]
        tasks.append((f"others ⊢ {target}", SearchTask.make(3, assume=others, refute=target)))
    tasks.append(("n=4 LD,D1 ⊢ D3", SearchTask.make(4, assume=("LD", "D1"), refute="D3")))
    tasks.append(("n=4 base", SearchTask(4)))
    for label, task in tasks:
        for symmetry in (True, False):
            yield (label, symmetry), encode_search(task, EncodeOptions(symmetry=symmetry))
    for assume, target in ((("D4", "D5", "LD"), "D3"), (("D6", "D2", "LD"), "D1"),
                           (("D1", "D2", "D4", "LD"), "D3")):
        task = SearchTask.make(4, assume=assume, refute=target)
        yield (f"n=4 {','.join(assume)} ⊢ {target}", True), encode_search(task)


def test_builtin_search_is_pinned():
    found = {}
    for key, cnf in pinned_searches():
        res = solve_builtin(cnf)
        digest = None if res.assignment is None else hashlib.sha256(bytes(res.assignment)).hexdigest()
        found[key] = (res.status, res.stats["decisions"], res.stats["propagations"], digest)
    assert found == SEARCH_PINS


def test_pysat_sat_unsat():
    pytest.importorskip("pysat")
    assert solve_pysat(tiny_sat()).status == SAT
    assert solve_pysat(tiny_unsat()).status == UNSAT
    assert solve_pysat(pigeonhole(5, 4), engine="minisat22").status == UNSAT


def stub_pysat(monkeypatch, outcome, model):
    """Put a pysat.solvers module in place whose Solver answers outcome and
    model, whatever the clauses."""
    class Solver:
        def __init__(self, name, bootstrap_with):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def solve(self):
            return outcome

        def get_model(self):
            return model

    module = types.ModuleType("pysat.solvers")
    module.Solver = Solver
    monkeypatch.setitem(sys.modules, "pysat.solvers", module)


def test_pysat_answer_is_padded_and_checked(monkeypatch):
    # variable 3 is left out of the model and comes back False
    cnf = CnfInstance.from_clauses(3, [(1, 2), (-1,)])
    stub_pysat(monkeypatch, True, [-1, 2])
    res = solve_pysat(cnf, engine="stub")
    assert res.status == SAT
    assert res.assignment == (False, True, False)
    assert res.stats["seconds"] >= 0

    stub_pysat(monkeypatch, True, [1, -2, -3])
    with pytest.raises(OutputParseError, match="stub"):
        solve_pysat(cnf, engine="stub")

    stub_pysat(monkeypatch, False, None)
    res = solve_pysat(tiny_unsat(), engine="stub")
    assert res.status == UNSAT
    assert res.assignment is None


def test_pysat_unknown_engine():
    with pytest.raises(SolverSpawnError):
        solve_pysat(tiny_sat(), engine="definitely-not-a-solver")


def test_parse_solver_output_sat():
    status, values, reason = parse_solver_output("c comment\ns SATISFIABLE\nv 1 -2\nv 3 0\n")
    assert status == SAT
    assert values == {1: True, 2: False, 3: True}
    assert reason is None


def test_parse_solver_output_unsat_and_unknown():
    assert parse_solver_output("s UNSATISFIABLE\n") == (UNSAT, {}, None)
    status, _, reason = parse_solver_output("s UNKNOWN\n")
    assert status == UNKNOWN
    assert "unknown" in reason


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


def test_external_rejects_a_bad_literal(tmp_path):
    # whatever the exit code: a status line was printed, so the exit code
    # does not stand in for it
    for code in (0, 10, 20):
        cmd = script(tmp_path, f"fake-garbled-{code}",
                     f'echo "s SATISFIABLE"\necho "v -1 x 0"\nexit {code}\n')
        with pytest.raises(OutputParseError, match="'x'"):
            solve_external(tiny_sat(), cmd)


def test_external_assignment_has_num_vars_entries(tmp_path):
    # the solver names a variable the instance does not have; as on every
    # backend, the assignment has exactly num_vars entries
    cmd = script(tmp_path, "fake-extra", 'echo "s SATISFIABLE"\necho "v -1 2 3 0"\n')
    res = solve_external(tiny_sat(), cmd)
    assert res.status == SAT
    assert res.assignment == (False, True)
    # and a variable it leaves out is False
    cmd = script(tmp_path, "fake-short", 'echo "s SATISFIABLE"\necho "v -1 2 0"\n')
    cnf = CnfInstance.from_clauses(3, [(1, 2), (-1,)])
    assert solve_external(cnf, cmd).assignment == (False, True, False)


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
    # pysat specs must reach solve_pysat with the right engine; its answers
    # are checked by test_pysat_sat_unsat and test_pysat_answer_is_padded_and_checked
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


def test_agreement_between_backends():
    pytest.importorskip("pysat")
    for task in (SearchTask(2), SearchTask.make(3, refute="D1"),
                 SearchTask.make(3, assume=("LD",))):
        cnf = encode_search(task)
        a = solve_builtin(cnf).status
        b = solve_pysat(cnf).status
        assert a == b
