import hashlib
import itertools
import re
import types
from collections import Counter

import pytest

import resbinar.encoder
from resbinar.algebra import check_lattice, check_residuation, check_identity, verify
from resbinar.encoder import (
    CnfInstance,
    EncodeOptions,
    ENCODING_CEILING,
    IllFormedAssignment,
    SearchTask,
    SizeOverflow,
    VarMap,
    decode_model,
    carrier_generators,
    encode_search,
    symmetry_clauses,
    write_dimacs_file,
)
from resbinar.oracle import EXHAUSTIVE_BOUND, enumerate_lattices, enumerate_residuated_binars
from resbinar.orchestrator import RULES, lattice_name
from resbinar.solver import SAT, UNKNOWN, UNSAT, solve_builtin
from resbinar.terms import DISTRIBUTIVITY_NAMES, IDENTITY_NAMES, builtin

from conftest import M3_LEQ, N5_LEQ, chain_tables, lattice_tables_from_leq


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
    assert list(cnf.iter_clauses()) == [(1, 2)]
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
    assert list(cnf.iter_clauses()) == [(1, 2), (4,)]


def test_from_clauses():
    cnf = CnfInstance.from_clauses(2, [(1, 2), (-1,)])
    assert list(cnf.iter_clauses()) == [(1, 2), (-1,)]
    assert cnf.num_vars == 2
    # duplicate literals go, tautologies are dropped, a 1-literal clause stays
    cnf = CnfInstance.from_clauses(4, [(1, 2, 1), (3, -3), (-4,), (2, -1, 4, 2), (1, -1, 2)])
    assert list(cnf.iter_clauses()) == [(1, 2), (-4,), (2, -1, 4)]
    assert cnf.clause_count == 3
    assert list(CnfInstance(2).iter_clauses()) == []


def test_dimacs_bytes_minimal(tmp_path):
    cnf = CnfInstance.from_clauses(2, [(1, 2), (-1,)])
    assert dimacs_bytes(cnf, tmp_path) == b"p cnf 2 2\n1 2 0\n-1 0\n"


def test_dimacs_file_matches_bytes(tmp_path):
    # n = 4 has more clauses than the writer buffers per chunk
    cnf = encode_search(SearchTask(4))
    lines = [f"c map {op} {row} {col} {value} {var}"
             for (op, row, col, value), var in cnf.varmap.base_items()]
    lines.append(f"p cnf {cnf.num_vars} {cnf.clause_count}")
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in cnf.iter_clauses())
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


def test_encoding_is_deterministic(tmp_path):
    task = SearchTask.make(3, assume=("D1",), refute="D2")
    a = dimacs_bytes(encode_search(task), tmp_path, "a.cnf")
    b = dimacs_bytes(encode_search(task), tmp_path, "b.cnf")
    assert a == b


# SHA-256 of write_dimacs_file output, recorded before the encoder's term
# values were reworked; any change to variables, clauses or their order shows.
ENCODING_DIGESTS = {
    "assume D1": "4822e0049e0675d9fbedd4ae3a785eac2f6f7820131831735d04be2d935c0d90",
    "refute D1": "baf50ecd1497bc95cefb1f37865ea39ddbb1f397c68b21a8688ee6a7cad68f83",
    "assume D2": "9ec5037568d69a1acfde61bf02f7f346833b19a0cb1268e3f463e944ee75fe2b",
    "refute D2": "f1ead54decc33262245586839da8eb71bd27e4faa579892df64275c14c5b6f65",
    "assume D3": "2b9ca19542e6319ca59387580f57c4fdb736ed389145e83bcf668cc3a580c7ad",
    "refute D3": "8e3bc7e6fa90328e517dc28c81dc65f3612215ca740dda6734d6b42ff5a43570",
    "assume D4": "67aaf60990a68c7a3a2ac575ded1cd62628ee83e9eef7a430604636a28f20d7d",
    "refute D4": "53209ab1773f26dda7a34a149f922adb26304b8ef6e6ea3d5b94716a93311657",
    "assume D5": "0ebdb842eb0d2e9b25fc0ec66bc97e1784e0c0d9c38fd4f99996b52f86b2dfd4",
    "refute D5": "8a17a5295ce5e0d7fc2ece560b2cc7a03c49a70bbe401218e6addc5b13286d0c",
    "assume D6": "c15968a4d125f230bd7473ca05a85e9a62a19de5580b190bd1c0cd71237470cc",
    "refute D6": "ff57834457ac14ca1e4ac5f7a47bf5bdb2538e7140cb55e43971350feea87d31",
    "assume LD": "3434bab07ef9c4be4e816769d9d7d7fc8ab3b9d6d1187d938359254d1c5630ea",
    "refute LD": "36005b62141f5e6c4ac459a8f92bf9af480f42e8ca28ff3e241086d88cae9833",
    "base, no symmetry": "c1f9c6aaab8371d3d448cf7c4ba4873c79a5d701c341ad6206e8a557fcd95e82",
    "others ⊢ D1": "54c67d86ddeb2300d9d056f48b558d12412f9c996d959588d6ab28a65d429229",
    "others ⊢ D2": "dd867d2b543e9ae8a6da9d79847f95e65e8372ca9cb6c171790f57aabd34a992",
    "others ⊢ D3": "00b19c0aaafc133f93e06afd0a9f1b7ebae9b06bb0fa461ae5e80c6cd449fbe3",
    "others ⊢ D4": "dad737aea52bf60f4740915646c4b1f716cb67ea39c6a5eafa5aa73f1a21d0c9",
    "others ⊢ D5": "837721cd17afd353bfeb152461e4b05f4e0d3afe31251ef9e8f6c4259b769710",
    "others ⊢ D6": "eedc74b8e8616e300c934ce6190281c93e3bc038c49033e5a6ccdc1c42d3dae4",
    "n=4 LD,D1 ⊢ D3": "9c8782ff5f09adb961db0c76cb4ccdd1e28c7e1a5bdf7a9b3f06f40259de5b15",
    # recorded before clauses were emitted in bulk: how often a clause meets
    # a repeated or complementary literal depends on n
    "n=4 assume D1": "ec6a2647d6380ab3ddd39a29d9edabc982706bcab2289d56cae0dd2e6521c501",
    "n=4 refute D1": "c967ba19dd98927922743a8c729899f110eb84dc0206667732887b3117509ce4",
    "n=4 assume D2": "1bfbc3899cd4e55b1b9ce984447d52a9dbfb3d71db97503c2dbed9c507195283",
    "n=4 refute D2": "99fc5c6eecd2c3a45be78cee8f35e76d48e28540bb039a05351ad9fb8874d57d",
    "n=4 assume D3": "3f8cb03b817e45c74109269b9e8fd26d1084f1a581a993196ee3d2f6afc419ae",
    "n=4 refute D3": "08fa2fffe7fedb5bdbf4f1a06a069717f93e6cb1d505f8e0c53b5872dec4a1ef",
    "n=4 assume D4": "d79fdbc1efd847ce3b28c93da5cab021136f09f5c595fd1bff0306c504cbd29b",
    "n=4 refute D4": "876c8bf41f2af3551aa84518473676a5aad0a2b8ac01252f2fdcc19155c7bbd6",
    "n=4 assume D5": "48150e21ea2bfcadc9588932e67cdbc0a1beb9af41bf82a0d9be4f5416e8bc5f",
    "n=4 refute D5": "72bf82e4179f2abe7686388f123a38d15839a9d0649651f93dd50ce90d812922",
    "n=4 assume D6": "1b5b1c1d4c4a1da6bbd73e1f284d2d32ec799b7f50bc92c31b89f8794b357e32",
    "n=4 refute D6": "f964f2f1e57d0b1174c57c488bc766bac2382ca8be359a7fefb7056443bc1995",
    "n=4 assume LD": "07f9c98a94d1e76e604064c1a03498c461207dddad26692c060477ae85b9ba34",
    "n=4 refute LD": "f0e03be43a5881d798e0a2b90beb00145927a41263a9946a96df13524f1bb346",
    "n=4 base, no symmetry": "5f37b34d35b6a2011e2692b85ead8fffd8b897afb9b77950102d48795a99fa65",
}


def pinned_encodings():
    """Each assumed and each refuted identity alone at n = 3, the base task
    without symmetry, the criterion-3 tasks at n = 3, one LD task at n = 4,
    then each identity alone and the base task without symmetry at n = 4."""
    for name in IDENTITY_NAMES:
        yield f"assume {name}", SearchTask.make(3, assume=(name,)), True
        yield f"refute {name}", SearchTask.make(3, refute=name), True
    yield "base, no symmetry", SearchTask(3), False
    for target in DISTRIBUTIVITY_NAMES:
        others = [d for d in DISTRIBUTIVITY_NAMES if d != target]
        yield f"others ⊢ {target}", SearchTask.make(3, assume=others, refute=target), True
    yield "n=4 LD,D1 ⊢ D3", SearchTask.make(4, assume=("LD", "D1"), refute="D3"), True
    for name in IDENTITY_NAMES:
        yield f"n=4 assume {name}", SearchTask.make(4, assume=(name,)), True
        yield f"n=4 refute {name}", SearchTask.make(4, refute=name), True
    yield "n=4 base, no symmetry", SearchTask(4), False


def test_every_identity_encodes_byte_for_byte_as_pinned(tmp_path):
    digests = {}
    for label, task, symmetry in pinned_encodings():
        cnf = encode_search(task, EncodeOptions(symmetry=symmetry))
        digests[label] = hashlib.sha256(dimacs_bytes(cnf, tmp_path)).hexdigest()
    assert digests == ENCODING_DIGESTS


def test_pinned_encodings_hold_only_normal_clauses():
    # add_clause would shorten a clause with a repeated literal and drop a
    # tautology, so a stored clause that is not normal shows as a difference
    for label, task, symmetry in pinned_encodings():
        cnf = encode_search(task, EncodeOptions(symmetry=symmetry))
        clauses = list(cnf.iter_clauses())
        assert all(0 < abs(lit) <= cnf.num_vars for clause in clauses for lit in clause), label
        again = CnfInstance.from_clauses(cnf.num_vars, clauses)
        assert again.clause_count == cnf.clause_count == len(clauses), label
        assert list(again.iter_clauses()) == clauses, label


def test_cached_base_encodes_like_a_cold_one(tmp_path, monkeypatch):
    tasks = [
        (SearchTask(3), True),
        (SearchTask.make(3, assume=("LD", "D1"), refute="D3"), False),
        (SearchTask.make(4, refute="D2"), True),
        (SearchTask.make(3, refute="LD"), True),
        (SearchTask.make(4, assume=("D5", "LD")), False),
    ]
    cold = []
    for task, symmetry in tasks:
        monkeypatch.setattr(resbinar.encoder, "_SIZES", {})
        cold.append(dimacs_bytes(encode_search(task, EncodeOptions(symmetry)), tmp_path))
    for order in (range(len(tasks)), reversed(range(len(tasks)))):
        monkeypatch.setattr(resbinar.encoder, "_SIZES", {})
        for i in order:
            task, symmetry = tasks[i]
            assert dimacs_bytes(encode_search(task, EncodeOptions(symmetry)), tmp_path) == cold[i]


def test_changing_an_encoding_leaves_the_cached_base_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(resbinar.encoder, "_SIZES", {})
    task = SearchTask.make(3, assume=("D1",), refute="D3")
    # the first encoding of a size fills the cache: its base and, copied
    # out of this encoding's clause store, the templates of both blocks
    cnf = encode_search(task)
    assert set(resbinar.encoder._SIZES[3].blocks) == {("assume", "D1"), ("refute", "D3")}
    before = dimacs_bytes(cnf, tmp_path)

    def change(cnf):
        var = cnf.new_var()
        cnf.add_clause((var, -1))
        cnf.varmap.aux[("mult", 0, 0)] = (var,) * 3
        for perm in cnf.symmetries:
            perm[1] = var

    change(cnf)
    # the second replays both blocks; a change to it touches no template
    replayed = encode_search(task)
    assert dimacs_bytes(replayed, tmp_path) == before
    change(replayed)
    assert dimacs_bytes(encode_search(task), tmp_path) == before
    lifted = [list(perm) for perm in encode_search(task, EncodeOptions(symmetry=False)).symmetries]
    change(encode_search(task, EncodeOptions(symmetry=False)))
    assert [list(perm) for perm in
            encode_search(task, EncodeOptions(symmetry=False)).symmetries] == lifted


def fingerprint(task, symmetry, directory):
    """Everything a replay must reproduce: the DIMACS bytes, VarMap.aux in
    order, the selectors in order and the exported symmetries."""
    enc = resbinar.encoder._Encoder(task, EncodeOptions(symmetry))
    cnf = enc.build()
    return (dimacs_bytes(cnf, directory), list(cnf.varmap.aux.items()),
            list(enc.selectors.items()), [list(perm) for perm in cnf.symmetries])


def replay_cases():
    """The pinned tasks; each pair of identities that share auxiliary
    terms assumed together, and each of them assumed while its partner is
    refuted, at n = 2, 3 and 4."""
    seen = [task for _, task, _ in pinned_encodings()]
    for n in (2, 3, 4):
        for a, b in (("D1", "D2"), ("D3", "D5"), ("D4", "D6")):
            seen.append(SearchTask.make(n, assume=(a, b)))
            seen.append(SearchTask.make(n, assume=(a,), refute=b))
            seen.append(SearchTask.make(n, assume=(b,), refute=a))
    return [(task, symmetry) for task in dict.fromkeys(seen) for symmetry in (True, False)]


def test_replayed_blocks_encode_like_cold_ones(tmp_path, monkeypatch):
    """The referee of the per-size block templates: each task encoded in a
    fresh cache must come out the same when every block it holds was
    recorded by other tasks before it, in forward and in reverse order."""
    cases = replay_cases()
    cold = []
    for task, symmetry in cases:
        monkeypatch.setattr(resbinar.encoder, "_SIZES", {})
        cold.append(fingerprint(task, symmetry, tmp_path))
    for order in (range(len(cases)), reversed(range(len(cases)))):
        monkeypatch.setattr(resbinar.encoder, "_SIZES", {})
        for i in order:
            task, symmetry = cases[i]
            assert fingerprint(task, symmetry, tmp_path) == cold[i], (task.describe(), symmetry)
    # the pinned tasks record every block at n = 3 and 4, so the warm
    # passes replayed each; at n = 2 a refuted block always follows its
    # partner and is encoded directly, and the assumed ones are replayed
    for n in (3, 4):
        assert len(resbinar.encoder._SIZES[n].blocks) == 2 * len(IDENTITY_NAMES)
    assert set(resbinar.encoder._SIZES[2].blocks) == {
        ("assume", name) for name in DISTRIBUTIVITY_NAMES}


def test_lift_names_what_a_relabeling_misses(monkeypatch):
    """An encoding that is not invariant under relabeling the carrier
    cannot be lifted; the error names the relabeled term or tuple it lacks."""
    monkeypatch.setattr(resbinar.encoder, "_SIZES", {})
    refute = resbinar.encoder._Encoder._refute
    # the encoder's itertools, except that product skips its first tuple
    skipping = types.SimpleNamespace(**vars(itertools))
    skipping.product = lambda *args, **kw: itertools.islice(itertools.product(*args, **kw), 1, None)

    def refute_all_but_one(self, ident):
        with monkeypatch.context() as patch:
            patch.setattr(resbinar.encoder, "itertools", skipping)
            refute(self, ident)

    monkeypatch.setattr(resbinar.encoder._Encoder, "_refute", refute_all_but_one)
    # the tuple x = y = z = 0 is gone, with its term x * (y ^ z), whose right
    # argument is the meet cell (0, 0): variables 1, 2 and 3
    message = ("encoding not invariant under relabeling [1, 0, 2]: "
               "no auxiliary term ('mult', 0, (1, 2, 3))")
    with pytest.raises(ValueError, match=re.escape(message)):
        encode_search(SearchTask.make(3, refute="D1"), EncodeOptions(symmetry=False))

    def refute_but_lose_a_selector(self, ident):
        refute(self, ident)
        del self.selectors[(0, 0, 0)]

    monkeypatch.setattr(resbinar.encoder, "_SIZES", {})
    monkeypatch.setattr(resbinar.encoder._Encoder, "_refute", refute_but_lose_a_selector)
    message = ("encoding not invariant under relabeling [1, 0, 2]: "
               "no selector for the refuted tuple (0, 0, 0)")
    with pytest.raises(ValueError, match=re.escape(message)):
        encode_search(SearchTask.make(3, refute="D1"), EncodeOptions(symmetry=False))


def symmetry_cases():
    """Each identity assumed alone and refuted alone and the base task at
    n = 2, 3 and 4, and the criterion-3 tasks at n = 3."""
    for n in (2, 3, 4):
        yield SearchTask(n)
        for name in IDENTITY_NAMES:
            yield SearchTask.make(n, assume=(name,))
            yield SearchTask.make(n, refute=name)
    for target in DISTRIBUTIVITY_NAMES:
        others = [d for d in DISTRIBUTIVITY_NAMES if d != target]
        yield SearchTask.make(3, assume=others, refute=target)


def test_exported_symmetries_map_the_clauses_onto_themselves():
    """The invariant symmetric learning in solve_builtin relies on and does
    not check: each generator maps the clause multiset onto itself.  A
    dropped refutation tuple or a dropped _force_into clause breaks it."""
    assert carrier_generators(1) == []
    assert carrier_generators(2) == [[1, 0]]
    assert carrier_generators(4) == [[1, 0, 2, 3], [1, 2, 3, 0]]
    for task in symmetry_cases():
        assert encode_search(task).symmetries == (), task.describe()
        cnf = encode_search(task, EncodeOptions(symmetry=False))
        assert len(cnf.symmetries) == (1 if task.size == 2 else 2), task.describe()
        clauses = [tuple(sorted(clause)) for clause in cnf.iter_clauses()]
        counts = Counter(clauses)
        for perm in cnf.symmetries:
            assert len(perm) == cnf.num_vars + 1 and perm[0] == 0, task.describe()
            assert sorted(perm) == list(range(cnf.num_vars + 1)), task.describe()
            images = Counter(tuple(sorted(perm[l] if l > 0 else -perm[-l] for l in clause))
                             for clause in clauses)
            assert images == counts, task.describe()


def referee_tasks(n):
    """The base task, D1..D6 and LD each assumed alone and refuted alone,
    and at n = 4 the six RULES proofs."""
    yield SearchTask(n)
    for name in IDENTITY_NAMES:
        yield SearchTask.make(n, assume=(name,))
        yield SearchTask.make(n, refute=name)
    if n == 4:
        for premises, conclusion in RULES:
            yield SearchTask.make(n, assume=(*premises, "LD"), refute=conclusion)


def referee_lattices():
    """(n, (meet, join)): every representative at n = 2..4, M3 and N5."""
    for n in (2, 3, 4):
        for lattice in enumerate_lattices(n, up_to_iso=True):
            yield n, lattice
    for leq in (M3_LEQ, N5_LEQ):
        yield 5, tuple(tuple(map(tuple, table)) for table in lattice_tables_from_leq(leq))


def pinned_to(task, lattice):
    """The task's encoding over every lattice, with symmetry breaking,
    which a naturally labelled lattice satisfies, and a unit clause per
    meet and join cell variable pinning the tables to the lattice."""
    cnf = encode_search(task)
    for op, table in zip(("meet", "join"), lattice):
        for (cell_op, row, col, value), var in cnf.varmap.base_items():
            if cell_op == op:
                cnf.add_clause((var if table[row][col] == value else -var,))
    return cnf


def test_lattice_mode_agrees_with_the_pinned_encoding():
    """The referee of lattice mode: on each lattice, folding the lattice
    in while encoding gives the verdict that pinning it after encoding
    gives, and each model found has exactly that lattice and answers the
    task."""
    for n, lattice in referee_lattices():
        for task in referee_tasks(n):
            label = f"{task.describe()} on {lattice[0]}"
            statuses = []
            for cnf in (encode_search(task, EncodeOptions(lattice=lattice)),
                        pinned_to(task, lattice)):
                assert cnf.symmetries == (), label
                result = solve_builtin(cnf)
                statuses.append(result.status)
                if result.status == SAT:
                    model = decode_model(result.assignment, cnf.varmap, n)
                    assert (model.meet, model.join) == lattice, label
                    assert verify(task, model) == [], label
            assert statuses[0] == statuses[1] and UNKNOWN not in statuses, label


# SHA-256 of write_dimacs_file output for each referee task on each referee
# lattice, recorded before the grid's bookkeeping was reworked; the verdict
# referee above sees a changed verdict, this sees any changed clause.
LATTICE_ENCODING_DIGESTS = {
    "n=2 assume=- refute=- on lattice 0<1": "68ccb6baeaf7c3d5c3857eb510365ec1379e23f25ef560afa31cecbf878f9abf",
    "n=2 assume=D1 refute=- on lattice 0<1": "68ccb6baeaf7c3d5c3857eb510365ec1379e23f25ef560afa31cecbf878f9abf",
    "n=2 assume=- refute=D1 on lattice 0<1": "19e2bc7dbcd3e59b838d2e0eeece2731e67e77502ed0457407c31cfa366d3614",
    "n=2 assume=D2 refute=- on lattice 0<1": "68ccb6baeaf7c3d5c3857eb510365ec1379e23f25ef560afa31cecbf878f9abf",
    "n=2 assume=- refute=D2 on lattice 0<1": "19e2bc7dbcd3e59b838d2e0eeece2731e67e77502ed0457407c31cfa366d3614",
    "n=2 assume=D3 refute=- on lattice 0<1": "68ccb6baeaf7c3d5c3857eb510365ec1379e23f25ef560afa31cecbf878f9abf",
    "n=2 assume=- refute=D3 on lattice 0<1": "19e2bc7dbcd3e59b838d2e0eeece2731e67e77502ed0457407c31cfa366d3614",
    "n=2 assume=D4 refute=- on lattice 0<1": "68ccb6baeaf7c3d5c3857eb510365ec1379e23f25ef560afa31cecbf878f9abf",
    "n=2 assume=- refute=D4 on lattice 0<1": "19e2bc7dbcd3e59b838d2e0eeece2731e67e77502ed0457407c31cfa366d3614",
    "n=2 assume=D5 refute=- on lattice 0<1": "68ccb6baeaf7c3d5c3857eb510365ec1379e23f25ef560afa31cecbf878f9abf",
    "n=2 assume=- refute=D5 on lattice 0<1": "19e2bc7dbcd3e59b838d2e0eeece2731e67e77502ed0457407c31cfa366d3614",
    "n=2 assume=D6 refute=- on lattice 0<1": "68ccb6baeaf7c3d5c3857eb510365ec1379e23f25ef560afa31cecbf878f9abf",
    "n=2 assume=- refute=D6 on lattice 0<1": "19e2bc7dbcd3e59b838d2e0eeece2731e67e77502ed0457407c31cfa366d3614",
    "n=2 assume=LD refute=- on lattice 0<1": "68ccb6baeaf7c3d5c3857eb510365ec1379e23f25ef560afa31cecbf878f9abf",
    "n=2 assume=- refute=LD on lattice 0<1": "19e2bc7dbcd3e59b838d2e0eeece2731e67e77502ed0457407c31cfa366d3614",
    "n=3 assume=- refute=- on lattice 0<1 1<2": "f3785eea88e524b2b1f1ca06ecdd51090991dfc84452c21b9afcd61593e3354f",
    "n=3 assume=D1 refute=- on lattice 0<1 1<2": "f3785eea88e524b2b1f1ca06ecdd51090991dfc84452c21b9afcd61593e3354f",
    "n=3 assume=- refute=D1 on lattice 0<1 1<2": "fa714ee4219fb9a266d5ba17e4a9be7401aa093ec3ddad175a946fdc63a3de38",
    "n=3 assume=D2 refute=- on lattice 0<1 1<2": "f3785eea88e524b2b1f1ca06ecdd51090991dfc84452c21b9afcd61593e3354f",
    "n=3 assume=- refute=D2 on lattice 0<1 1<2": "fa714ee4219fb9a266d5ba17e4a9be7401aa093ec3ddad175a946fdc63a3de38",
    "n=3 assume=D3 refute=- on lattice 0<1 1<2": "f3785eea88e524b2b1f1ca06ecdd51090991dfc84452c21b9afcd61593e3354f",
    "n=3 assume=- refute=D3 on lattice 0<1 1<2": "fa714ee4219fb9a266d5ba17e4a9be7401aa093ec3ddad175a946fdc63a3de38",
    "n=3 assume=D4 refute=- on lattice 0<1 1<2": "f3785eea88e524b2b1f1ca06ecdd51090991dfc84452c21b9afcd61593e3354f",
    "n=3 assume=- refute=D4 on lattice 0<1 1<2": "fa714ee4219fb9a266d5ba17e4a9be7401aa093ec3ddad175a946fdc63a3de38",
    "n=3 assume=D5 refute=- on lattice 0<1 1<2": "f3785eea88e524b2b1f1ca06ecdd51090991dfc84452c21b9afcd61593e3354f",
    "n=3 assume=- refute=D5 on lattice 0<1 1<2": "fa714ee4219fb9a266d5ba17e4a9be7401aa093ec3ddad175a946fdc63a3de38",
    "n=3 assume=D6 refute=- on lattice 0<1 1<2": "f3785eea88e524b2b1f1ca06ecdd51090991dfc84452c21b9afcd61593e3354f",
    "n=3 assume=- refute=D6 on lattice 0<1 1<2": "fa714ee4219fb9a266d5ba17e4a9be7401aa093ec3ddad175a946fdc63a3de38",
    "n=3 assume=LD refute=- on lattice 0<1 1<2": "f3785eea88e524b2b1f1ca06ecdd51090991dfc84452c21b9afcd61593e3354f",
    "n=3 assume=- refute=LD on lattice 0<1 1<2": "fa714ee4219fb9a266d5ba17e4a9be7401aa093ec3ddad175a946fdc63a3de38",
    "n=4 assume=- refute=- on lattice 0<1 0<2 1<3 2<3": "acb132fe68b0927ff6617248fca79504e4e4087029409baab78a378f918a3964",
    "n=4 assume=D1 refute=- on lattice 0<1 0<2 1<3 2<3": "d769677c3760a412ce68c100bb2b1bdc7e34def9f703d18b295e9f4cac998224",
    "n=4 assume=- refute=D1 on lattice 0<1 0<2 1<3 2<3": "ac3efc4ad2f7fd47bfdb894253cf37e6d535aea26cbb7f1eb56bdc3de8069362",
    "n=4 assume=D2 refute=- on lattice 0<1 0<2 1<3 2<3": "a315b5c610470bc1eacc79496647e150ec7c70630e3b8d5d90f61bc6a63391e2",
    "n=4 assume=- refute=D2 on lattice 0<1 0<2 1<3 2<3": "73cf0812aa68073d65633b048f09f6d549dacdb2110ff56e1f6e73f154150291",
    "n=4 assume=D3 refute=- on lattice 0<1 0<2 1<3 2<3": "ffdc87f5b54c8a01bb65622042027031b2ff8418c45b4f5801dd28b943780372",
    "n=4 assume=- refute=D3 on lattice 0<1 0<2 1<3 2<3": "ec0b5c13c24d4099b85b9afaf541f76a0bc828a3cf94b3f09ee1d128a0d637e9",
    "n=4 assume=D4 refute=- on lattice 0<1 0<2 1<3 2<3": "1e7d040afdf2eb16edc3d3f483e99c1a30a1b158f66eff32b941a344639a3b1d",
    "n=4 assume=- refute=D4 on lattice 0<1 0<2 1<3 2<3": "13c0e36fa338b77fae141f736214141af3fb9391b6dd4d2b918be1e7181246d0",
    "n=4 assume=D5 refute=- on lattice 0<1 0<2 1<3 2<3": "c58a9cab7f633e9b7bfc5d1f3f3b8779d1868e1a506b2a3bef97edb37f7bdff2",
    "n=4 assume=- refute=D5 on lattice 0<1 0<2 1<3 2<3": "6b2bd3cf4c0798cdda51012dd07501eda9b4d8fb3564cf29921d24f987dceb56",
    "n=4 assume=D6 refute=- on lattice 0<1 0<2 1<3 2<3": "ece34a50d1e94035a19b56aedf705bec72d064fa369273e17f294ea47ab384ac",
    "n=4 assume=- refute=D6 on lattice 0<1 0<2 1<3 2<3": "7983a35846182a4513a01637be30669b575d268911e6a2431dc725f75a10b875",
    "n=4 assume=LD refute=- on lattice 0<1 0<2 1<3 2<3": "acb132fe68b0927ff6617248fca79504e4e4087029409baab78a378f918a3964",
    "n=4 assume=- refute=LD on lattice 0<1 0<2 1<3 2<3": "51ac812084fcf9d8ebde4977cb1130d209afe004d55bce5052a365959ea3f8e3",
    "n=4 assume=D4,D5,LD refute=D3 on lattice 0<1 0<2 1<3 2<3": "f4487e412e3e09ed968922cd4896d5fd09e16fe920d632d5d541d70c1dc9d936",
    "n=4 assume=D3,D6,LD refute=D4 on lattice 0<1 0<2 1<3 2<3": "09012a160c6161c02d6e003c277e4252738718e9e094c681a7788cc0b004ab68",
    "n=4 assume=D1,D4,LD refute=D6 on lattice 0<1 0<2 1<3 2<3": "974d51fe17fbea7a0457cbd560989f5ce89f15e9ae413a7284e3fe462bec4697",
    "n=4 assume=D2,D3,LD refute=D5 on lattice 0<1 0<2 1<3 2<3": "62fcad7fc270e7df32dd8e04c2ecacba50545c75b64456caf85c033cf900c9e2",
    "n=4 assume=D1,D5,LD refute=D2 on lattice 0<1 0<2 1<3 2<3": "598b4914440764098b05413da9edf689fb25666fb3154a2d53a694f87e75cc4a",
    "n=4 assume=D2,D6,LD refute=D1 on lattice 0<1 0<2 1<3 2<3": "bd2476e80f824fe56229b1290191ba9890607f9182fdb910cd4afd8120a5602a",
    "n=4 assume=- refute=- on lattice 0<1 1<2 2<3": "2149cecdd60a163543d7570571434aa7ce524add0a28668650f7fcf89c75b307",
    "n=4 assume=D1 refute=- on lattice 0<1 1<2 2<3": "2149cecdd60a163543d7570571434aa7ce524add0a28668650f7fcf89c75b307",
    "n=4 assume=- refute=D1 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D2 refute=- on lattice 0<1 1<2 2<3": "2149cecdd60a163543d7570571434aa7ce524add0a28668650f7fcf89c75b307",
    "n=4 assume=- refute=D2 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D3 refute=- on lattice 0<1 1<2 2<3": "2149cecdd60a163543d7570571434aa7ce524add0a28668650f7fcf89c75b307",
    "n=4 assume=- refute=D3 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D4 refute=- on lattice 0<1 1<2 2<3": "2149cecdd60a163543d7570571434aa7ce524add0a28668650f7fcf89c75b307",
    "n=4 assume=- refute=D4 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D5 refute=- on lattice 0<1 1<2 2<3": "2149cecdd60a163543d7570571434aa7ce524add0a28668650f7fcf89c75b307",
    "n=4 assume=- refute=D5 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D6 refute=- on lattice 0<1 1<2 2<3": "2149cecdd60a163543d7570571434aa7ce524add0a28668650f7fcf89c75b307",
    "n=4 assume=- refute=D6 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=LD refute=- on lattice 0<1 1<2 2<3": "2149cecdd60a163543d7570571434aa7ce524add0a28668650f7fcf89c75b307",
    "n=4 assume=- refute=LD on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D4,D5,LD refute=D3 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D3,D6,LD refute=D4 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D1,D4,LD refute=D6 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D2,D3,LD refute=D5 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D1,D5,LD refute=D2 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=4 assume=D2,D6,LD refute=D1 on lattice 0<1 1<2 2<3": "cc8dfcd1c79e2fd1d10eff48f3a926096f137923558067aa4a3718e19ea97fe0",
    "n=5 assume=- refute=- on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "479e919a74a3b14c90335a58aae023cbf7ce6525f885db3b79b307b2d8dcb44f",
    "n=5 assume=D1 refute=- on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "9e75f34a90d5b0a7147575fd5a83ca5c72d37e2f80c4e92b73371d50a5e040b7",
    "n=5 assume=- refute=D1 on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "430b7b95056208e39ad68934bd49256a5abe1b352ea2d2ae2429b7fedd016fff",
    "n=5 assume=D2 refute=- on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "5c29e1e3dba7930a75fa98024a0f538e7ac64da4f579f28cd5ba2bcec3612c0d",
    "n=5 assume=- refute=D2 on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "32838f71b3cd9e74701b70f88ab21488db09e1ebef8e17ef0a4ec0cf67ae77b6",
    "n=5 assume=D3 refute=- on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "41171694ff48d5e036f82164da0832a9d86e9fcd1d54741355436b8a4a689727",
    "n=5 assume=- refute=D3 on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "cb79920bfc0e2530d936c77fad56108ede9140bb294a8c48853c6dc8acc35a33",
    "n=5 assume=D4 refute=- on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "185667f26e969ab9c9736e5a278bc674a6128fa90b4362d13a2aaf30056e09ea",
    "n=5 assume=- refute=D4 on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "8c65ec9bb2be9a4dde1a639e9a5d73f21facb76378e30fc6df032cfe41e00a04",
    "n=5 assume=D5 refute=- on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "94c3b2d80495dc6ab44a81e45801a923073f184ed837b5efa88da7b0f2a0da77",
    "n=5 assume=- refute=D5 on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "32721819bfeaadca4ff538b249766fb522bcb8a31e62b8936b5e848d6d5dff31",
    "n=5 assume=D6 refute=- on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "20350f5a3d19e15ac991646d1c366e527f2174f94842550513a34420a7636fdc",
    "n=5 assume=- refute=D6 on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "23153863c7bac36260604d9e5ad6ed139d4855e8661da4ded0522aab8b9ccb87",
    "n=5 assume=LD refute=- on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "0d2240f95c9adccfed935d6aa83cb37ff577288a8da9997a58cc2f9e2ad52e06",
    "n=5 assume=- refute=LD on lattice 0<1 0<2 0<3 1<4 2<4 3<4": "e7115a7f1774f2b88c2b9c8e889f964881feda734dfe6988eb75161d4e41eb41",
    "n=5 assume=- refute=- on lattice 0<1 0<2 1<3 2<4 3<4": "64d45d9318a8ba50c71e3c61af946df721f95b74db274722748165cae884a584",
    "n=5 assume=D1 refute=- on lattice 0<1 0<2 1<3 2<4 3<4": "563149ce82c354579dde45dafd31a496af7170217a26017e44dccbd4874f2967",
    "n=5 assume=- refute=D1 on lattice 0<1 0<2 1<3 2<4 3<4": "07ca5ce8e0d6f837e47829078d6840151004ace9038d238349e2d463b413b7a5",
    "n=5 assume=D2 refute=- on lattice 0<1 0<2 1<3 2<4 3<4": "1ec9d4f46372e6736c76ec66439843763f86d94d14a9d246e42b5ce71e58951b",
    "n=5 assume=- refute=D2 on lattice 0<1 0<2 1<3 2<4 3<4": "9612b7f7ebedc4e58bc959bf444a6caffa3008393b679a3bd1cb58fa1a15c4bc",
    "n=5 assume=D3 refute=- on lattice 0<1 0<2 1<3 2<4 3<4": "c043b855d5f39028b09cc7ec1071f7ba1432cd81f17224ef55755083ae13ed8b",
    "n=5 assume=- refute=D3 on lattice 0<1 0<2 1<3 2<4 3<4": "83b744b6545ecb73bab916771a8c9f240cf43586aa6888bea26e79b0c50b6fb0",
    "n=5 assume=D4 refute=- on lattice 0<1 0<2 1<3 2<4 3<4": "a8f65341b3940f60baac261e365e6d125d3a6b795c9144a33ed03697ef2f5f0d",
    "n=5 assume=- refute=D4 on lattice 0<1 0<2 1<3 2<4 3<4": "4c658a6c464bbeb6cf5c9e8f4967a19c03be3a1449b620de8561df46098fd0e4",
    "n=5 assume=D5 refute=- on lattice 0<1 0<2 1<3 2<4 3<4": "c20229dcb4795fc171a8c6e5c3ded92080180a95a25cdcf786321fe08706c04b",
    "n=5 assume=- refute=D5 on lattice 0<1 0<2 1<3 2<4 3<4": "a7f52d102a8aa1b5c63da612844ae7b7e614f919b6945744fa2d9aed15033e9e",
    "n=5 assume=D6 refute=- on lattice 0<1 0<2 1<3 2<4 3<4": "db586225daf46becdb6f8b2bfbe7a14ddf3d4d6172235adf21aafb6a9670995f",
    "n=5 assume=- refute=D6 on lattice 0<1 0<2 1<3 2<4 3<4": "6d2a36dfc5e04a5a902df6b98e1dd5c30ee3140ebf723c73010f7b4d70b8aa69",
    "n=5 assume=LD refute=- on lattice 0<1 0<2 1<3 2<4 3<4": "fe6ca37f0dcd60002f538056a19faaa07daba73a995853109cbd56a2cbe99ff7",
    "n=5 assume=- refute=LD on lattice 0<1 0<2 1<3 2<4 3<4": "d7cfa9e95b0e683a01342dffb5767d3104fa37ec0d5e28b6b49d9065be4f4208",
}


def test_lattice_mode_encodes_byte_for_byte_as_pinned(tmp_path):
    digests = {}
    for n, lattice in referee_lattices():
        for task in referee_tasks(n):
            cnf = encode_search(task, EncodeOptions(lattice=lattice))
            label = f"{task.describe()} on {lattice_name(lattice)}"
            digests[label] = hashlib.sha256(dimacs_bytes(cnf, tmp_path)).hexdigest()
    assert digests == LATTICE_ENCODING_DIGESTS


def test_lattice_mode_replays_blocks_like_cold_ones(tmp_path, monkeypatch):
    """Per (size, lattice) templates: each referee task at n = 4 encodes
    the same cold, and after every block it holds was recorded by other
    tasks, in forward and in reverse order."""
    cases = [(task, lattice) for n, lattice in referee_lattices() if n == 4
             for task in referee_tasks(n)]

    def fingerprint(task, lattice):
        enc = resbinar.encoder._Encoder(task, EncodeOptions(lattice=lattice))
        cnf = enc.build()
        return dimacs_bytes(cnf, tmp_path), list(cnf.varmap.aux.items()), list(enc.selectors.items())

    cold = []
    for task, lattice in cases:
        monkeypatch.setattr(resbinar.encoder, "_SIZES", {})
        cold.append(fingerprint(task, lattice))
    for order in (range(len(cases)), reversed(range(len(cases)))):
        monkeypatch.setattr(resbinar.encoder, "_SIZES", {})
        for i in order:
            assert fingerprint(*cases[i]) == cold[i], cases[i][0].describe()


def test_lattice_mode_rejects_tables_that_are_no_lattice():
    meet, join = chain_tables(3)
    bad_join = [row[:] for row in join]
    bad_join[1][2] = bad_join[2][1] = 1  # 1 v 2 = 1 although 1 <= 2
    for lattice in ((meet, bad_join), ([row[:2] for row in meet[:2]], join)):
        with pytest.raises(ValueError):
            encode_search(SearchTask(3), EncodeOptions(lattice=lattice))


def test_lattice_mode_models_are_the_oracles():
    """Every model, not only the first: up to the exhaustive bound, the
    models of the base task on each representative, enumerated by
    blocking each mult table found, are the oracle's residuated binars
    with that lattice.  A dropped folded clause that admits a model shows
    here even when the solver's first model never uses it."""
    for n in range(1, EXHAUSTIVE_BOUND + 1):
        for lattice in enumerate_lattices(n, up_to_iso=True):
            cnf = encode_search(SearchTask(n), EncodeOptions(lattice=lattice))
            found = set()
            while (result := solve_builtin(cnf)).status == SAT:
                model = decode_model(result.assignment, cnf.varmap, n)
                found.add(model)
                cnf.add_clause([-cnf.varmap.var("mult", x, y, model.mult[x][y])
                                for x in range(n) for y in range(n)])
            assert result.status == UNSAT
            assert found == {b for b in enumerate_residuated_binars(n)
                             if (b.meet, b.join) == lattice}, n


def test_lattice_mode_refutes_on_the_chain_by_propagation_alone():
    """Every D_i holds on a chain, and with the chain fixed monotonicity
    orders every two cells a refuted tuple's side compares: each side
    folds to one cell, the same on both sides, so each refutation is UNSAT
    with no decision, alone and against the other five."""
    for n in range(2, 7):
        lattice = chain_tables(n)
        for target in DISTRIBUTIVITY_NAMES:
            others = [d for d in DISTRIBUTIVITY_NAMES if d != target]
            for assume in ((), others):
                task = SearchTask.make(n, assume=assume, refute=target)
                result = solve_builtin(encode_search(task, EncodeOptions(lattice=lattice)))
                assert (result.status, result.stats["decisions"]) == (UNSAT, 0), task.describe()
