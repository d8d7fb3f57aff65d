import itertools

import pytest

from resbinar.algebra import check_lattice, check_residuation, check_identity
from resbinar.encoder import (
    CnfInstance,
    EncodeOptions,
    ENCODING_CEILING,
    IllFormedAssignment,
    SearchTask,
    SizeOverflow,
    VarMap,
    decode_model,
    encode_search,
    symmetry_clauses,
    write_dimacs_file,
)
from resbinar.solver import SAT, UNSAT, solve_builtin
from resbinar.terms import OPS, builtin


def dimacs_bytes(cnf, directory, name="out.cnf"):
    path = directory / name
    write_dimacs_file(cnf, path)
    return path.read_bytes()


def test_varmap_layout_is_dense_and_injective():
    vm = VarMap(3)
    seen = set()
    for cell, var in vm.base_items():
        assert var not in seen
        seen.add(var)
    assert seen == set(range(1, vm.num_base + 1))
    assert vm.num_base == 5 * 27


def test_varmap_leq_is_meet_cell():
    vm = VarMap(3)
    assert vm.leq(1, 2) == vm.var("meet", 1, 2, 1)
    with pytest.raises(ValueError):
        vm.var("meet", 0, 0, 3)


def test_cnf_instance_clause_handling():
    cnf = CnfInstance(3)
    assert cnf.add_clause([1, 2, 2])
    assert cnf.clauses == [(1, 2)]
    # tautology dropped, not stored
    assert not cnf.add_clause([1, -1, 3])
    assert cnf.clause_count == 1
    with pytest.raises(ValueError):
        cnf.add_clause([])
    with pytest.raises(ValueError):
        cnf.add_clause([4])
    with pytest.raises(ValueError):
        cnf.add_clause([0])
    assert cnf.new_var() == 4
    assert cnf.add_clause([4])
    assert cnf.clauses == [(1, 2), (4,)]


def test_from_clauses():
    cnf = CnfInstance.from_clauses(2, [(1, 2), (-1,)])
    assert cnf.clauses == [(1, 2), (-1,)]
    assert cnf.num_vars == 2


def test_dimacs_bytes_minimal(tmp_path):
    cnf = CnfInstance.from_clauses(2, [(1, 2), (-1,)])
    assert dimacs_bytes(cnf, tmp_path) == b"p cnf 2 2\n1 2 0\n-1 0\n"


def test_dimacs_file_matches_bytes(tmp_path):
    # n = 4 has more clauses than the writer buffers per chunk
    cnf = encode_search(SearchTask(4))
    lines = [f"c map {op} {row} {col} {value} {var}"
             for (op, row, col, value), var in cnf.varmap.base_items()]
    lines.append(f"p cnf {cnf.num_vars} {cnf.clause_count}")
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in cnf.clauses)
    assert dimacs_bytes(cnf, tmp_path) == ("\n".join(lines) + "\n").encode("ascii")


def test_dimacs_map_comments_cover_base_variables(tmp_path):
    cnf = encode_search(SearchTask(2))
    text = dimacs_bytes(cnf, tmp_path).decode()
    maps = [line for line in text.splitlines() if line.startswith("c map ")]
    assert len(maps) == 5 * 8
    header = next(line for line in text.splitlines() if line.startswith("p cnf"))
    _, _, nvars, nclauses = header.split()
    assert int(nvars) == cnf.num_vars
    assert int(nclauses) == cnf.clause_count


def test_search_task_canonicalization():
    t = SearchTask.make(3, assume=(builtin("D1"), "D2"), refute=builtin("LD"))
    assert t.assume == frozenset({"D1", "D2"})
    assert t.refute == "LD"
    assert t.key() == (3, ("D1", "D2"), "LD")
    assert "n=3" in t.describe()


def test_search_task_rejects_conflicts():
    with pytest.raises(ValueError):
        SearchTask.make(2, assume=("D1",), refute="D1")
    with pytest.raises(ValueError):
        SearchTask.make(2, assume=("Q9",))
    with pytest.raises(ValueError):
        SearchTask(0)


def test_encode_size_ceiling():
    with pytest.raises(SizeOverflow):
        encode_search(SearchTask(ENCODING_CEILING + 1))


def test_symmetry_clauses_shape():
    vm = VarMap(3)
    clauses = set(symmetry_clauses(3, vm.leq))
    # bottom 0, top n-1, and labels form a linear extension
    assert (vm.leq(0, 1),) in clauses
    assert (vm.leq(0, 2),) in clauses
    assert (vm.leq(1, 2),) in clauses
    assert (-vm.leq(1, 0),) in clauses
    assert (-vm.leq(2, 0),) in clauses
    assert (-vm.leq(2, 1),) in clauses


def solve_and_decode(task, symmetry=True):
    cnf = encode_search(task, EncodeOptions(symmetry=symmetry))
    res = solve_builtin(cnf)
    if res.status != SAT:
        return res.status, None
    return SAT, decode_model(res.assignment, cnf.varmap, task.size)


def test_encode_base_task_n2_solves_to_verified_model():
    status, model = solve_and_decode(SearchTask(2))
    assert status == SAT
    assert model.size == 2
    assert check_lattice(model).passed
    assert check_residuation(model).passed


def test_encode_assume_forces_identities():
    task = SearchTask.make(3, assume=("D1", "D2", "D3", "D4", "D5", "D6", "LD"))
    status, model = solve_and_decode(task)
    assert status == SAT
    for name in task.assume:
        assert check_identity(model, builtin(name)) is None


def test_encode_refute_is_unsat_when_no_countermodel_exists():
    # all residuated binars on three or fewer elements satisfy D1..D6 and LD
    for name in ("D1", "LD"):
        status, _ = solve_and_decode(SearchTask.make(3, refute=name))
        assert status == UNSAT


def test_encode_refute_without_symmetry_agrees():
    status, _ = solve_and_decode(SearchTask.make(2, refute="D3"), symmetry=False)
    assert status == UNSAT


def test_symmetry_keeps_base_task_satisfiable():
    for n in (2, 3, 4):
        status, model = solve_and_decode(SearchTask(n))
        assert status == SAT
        # pinned labels: 0 is the bottom, n-1 the top
        assert all(model.meet[0][y] == 0 for y in range(n))
        assert all(model.join[x][n - 1] == n - 1 for x in range(n))


def test_decode_model_rejects_ill_formed():
    cnf = encode_search(SearchTask(2))
    with pytest.raises(IllFormedAssignment):
        decode_model([False] * cnf.num_vars, cnf.varmap, 2)


def test_decode_model_accepts_mapping():
    cnf = encode_search(SearchTask(2))
    res = solve_builtin(cnf)
    pairs = {v + 1: res.assignment[v] for v in range(cnf.num_vars)}
    model = decode_model(pairs, cnf.varmap, 2)
    assert model == decode_model(res.assignment, cnf.varmap, 2)


def test_encoding_is_deterministic(tmp_path):
    task = SearchTask.make(3, assume=("D1",), refute="D2")
    a = dimacs_bytes(encode_search(task), tmp_path, "a.cnf")
    b = dimacs_bytes(encode_search(task), tmp_path, "b.cnf")
    assert a == b
