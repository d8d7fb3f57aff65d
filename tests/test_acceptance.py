"""Acceptance suite: one test per shipped claim, at stated tolerance.

Each criterion prints one PASS line on success; a failure is an honest
failure of the claim, not a tolerance to tune.  Engines per criterion:

- 1 and 6, the equivalence sweeps, use the bundled CDCL solver so they
  exercise the pure-Python path end to end;
- 2, 4 and 5 use the shared ENGINE from conftest (pysat when it can be
  imported, the bundled solver otherwise), which settles them either way;
  2 at size 5 does so split over the lattices, as a grid solves it;
- 3 needs pysat (witnesses at n = 7..9 with up to 4M clauses) and is
  skipped without it.
"""

import itertools
import random
from pathlib import Path

import pytest

from resbinar.algebra import verify
from resbinar.encoder import (
    EncodeOptions,
    SearchTask,
    decode_model,
    encode_search,
    write_dimacs_file,
)
from resbinar.oracle import count_models, enumerate_lattices, oracle_search
from resbinar.orchestrator import implication_closure, task_lattices
from resbinar.reporting import cayley_latex, hasse_dot, hasse_tikz
from resbinar.solver import SAT, UNSAT, solve, solve_builtin
from resbinar.terms import (
    DISTRIBUTIVITY_NAMES,
    OPS,
    Apply,
    Variable,
    format_term,
    parse_term,
)

from conftest import ENGINE, chain_tables, lattice_tables_from_leq, make_binar, M3_LEQ

GOLDEN = Path(__file__).parent / "golden"
# criterion 2 at size 5 and criterion 3 only; the bundled solver does not
# settle those in reasonable time (see CHANGES.md for its n = 5 times)
PYSAT_ENGINE = "pysat:kissat404"


def family(n):
    """Every task of one size: each target (or none) crossed with every
    subset of the remaining identities, with and without LD."""
    for target in DISTRIBUTIVITY_NAMES + (None,):
        others = [d for d in DISTRIBUTIVITY_NAMES if d != target]
        for r in range(len(others) + 1):
            for subset in itertools.combinations(others, r):
                for ld in (False, True):
                    assume = frozenset(subset) | ({"LD"} if ld else frozenset())
                    yield SearchTask(n, assume, target)


def verified_model(task, cnf, assignment):
    """Decode and independently verify a satisfying assignment."""
    model = decode_model(assignment, cnf.varmap, task.size)
    assert verify(task, model) == [], task.describe()
    return model


def test_criterion_1_oracle_encoder_equivalence():
    """n in {2,3}: encode+solve agrees with the enumeration oracle on every
    task in the family; zero tolerance, built-in solver.

    The encodings have no symmetry breaking, so they export the carrier
    relabelings and the solver learns each conflict's whole orbit.  An
    encoder fault that breaks that symmetry can then be masked or turned
    into a wrong UNSAT by the images, so this criterion no longer referees
    the encoder alone: test_exported_symmetries_map_the_clauses_onto_themselves
    in tests/test_encoder.py is part of the referee."""
    checked = 0
    for n in (2, 3):
        for task in family(n):
            expected = oracle_search(task) is not None
            cnf = encode_search(task, EncodeOptions(symmetry=False))
            res = solve_builtin(cnf)
            assert res.status in (SAT, UNSAT), task.describe()
            got = res.status == SAT
            assert got == expected, (
                f"{task.describe()}: solver {res.status}, oracle "
                f"{'SAT' if expected else 'UNSAT'}"
            )
            if got:
                verified_model(task, cnf, res.assignment)
            checked += 1
    assert checked == 1024
    print(f"criterion 1: PASS ({checked} tasks, solver == oracle on all)")


# Each derived implication: two premises and the conclusion they give with LD.
IMPLICATIONS = [
    (("D4", "D5"), "D3"),
    (("D3", "D6"), "D4"),
    (("D1", "D4"), "D6"),
    (("D2", "D3"), "D5"),
    (("D5", "D1"), "D2"),
    (("D6", "D2"), "D1"),
]


def assert_implications_hold(sizes, engine, split=False):
    """Assuming the two premise identities plus LD while refuting the
    conclusion is UNSAT at every size given: in one encoding, or with
    `split` on each lattice a grid task under LD is split over (a
    representative of every distributive lattice of the size), each
    encoded with its lattice fixed.  Any SAT is a hard failure."""
    for premises, conclusion in IMPLICATIONS:
        assert conclusion in implication_closure(premises)
        for n in sizes:
            task = SearchTask.make(n, assume=premises + ("LD",), refute=conclusion)
            for lattice in task_lattices(n, True) if split else (None,):
                res = solve(encode_search(task, EncodeOptions(lattice=lattice)), engine)
                assert res.status == UNSAT, f"{task.describe()} on {lattice}: got {res.status}"


def test_criterion_2_derived_implications_hold():
    """Each derived implication stays consistent at sizes 2..4; size 5 is
    test_criterion_2_derived_implications_hold_at_size_5."""
    assert_implications_hold(range(2, 5), ENGINE)
    print("criterion 2: PASS (6 implications x sizes 2..4 all UNSAT)")


def test_criterion_2_derived_implications_hold_at_size_5():
    """Criterion 2 at size 5, split over the lattices, where the bundled
    solver settles each implication in well under a second."""
    assert_implications_hold((5,), ENGINE, split=True)
    print("criterion 2: PASS (6 implications at size 5 all UNSAT)")


# Witness sizes recorded from the first full run of this search; the test
# re-runs the search itself and escalates past the recorded size if needed.
KNOWN_WITNESS_SIZE = {"D1": 7, "D2": 7, "D3": 7, "D4": 7, "D5": 9, "D6": 9}


def test_criterion_3_no_identity_follows_from_the_other_five():
    """For each target, assuming the other five (without LD) admits a
    verified countermodel of size at most 12."""
    pytest.importorskip("pysat")
    for target in DISTRIBUTIVITY_NAMES:
        others = tuple(d for d in DISTRIBUTIVITY_NAMES if d != target)
        witness = None
        for n in range(KNOWN_WITNESS_SIZE[target], 13):
            task = SearchTask.make(n, assume=others, refute=target)
            cnf = encode_search(task)
            res = solve(cnf, PYSAT_ENGINE)
            if res.status == SAT:
                witness = verified_model(task, cnf, res.assignment)
                break
        assert witness is not None, f"no countermodel for {target} up to size 12"
        assert witness.size <= 12
    print("criterion 3: PASS (countermodel for each of the six targets)")


def test_criterion_4_distributive_case_independence():
    """With LD assumed, every non-implied (subset, target) pair has a
    countermodel of size at most 6."""
    pairs = []
    for target in DISTRIBUTIVITY_NAMES:
        others = [d for d in DISTRIBUTIVITY_NAMES if d != target]
        for r in range(len(others) + 1):
            for subset in itertools.combinations(others, r):
                if target not in implication_closure(subset):
                    pairs.append((subset, target))
    assert len(pairs) == 144  # 6 targets x (32 - 8 implied subsets)
    sizes_seen = set()
    for subset, target in pairs:
        witness = None
        # sizes 2 and 3 admit no countermodel at all (every small algebra
        # satisfies every identity), so start at 4
        for n in (4, 5, 6):
            task = SearchTask.make(n, assume=subset + ("LD",), refute=target)
            cnf = encode_search(task)
            res = solve(cnf, ENGINE)
            if res.status == SAT:
                witness = verified_model(task, cnf, res.assignment)
                break
        assert witness is not None, f"no countermodel for {target} from {subset}"
        sizes_seen.add(witness.size)
    assert sizes_seen <= {4, 5, 6}
    print(f"criterion 4: PASS ({len(pairs)} pairs, witness sizes {sorted(sizes_seen)})")


def test_criterion_5_round_trip_soundness():
    """100 randomly sampled satisfiable tasks at n <= 4: every decoded
    model passes full verification; zero tolerance."""
    rng = random.Random(20240817)
    verified = 0
    attempts = 0
    while verified < 100:
        attempts += 1
        assert attempts < 2000, "satisfiable tasks too rare under sampler"
        n = rng.choice((2, 3, 4))
        assume = {d for d in DISTRIBUTIVITY_NAMES if rng.random() < 0.4}
        if rng.random() < 0.5:
            assume.add("LD")
        rest = [d for d in DISTRIBUTIVITY_NAMES if d not in assume]
        refute = rng.choice(rest) if rest and rng.random() < 0.3 else None
        task = SearchTask(n, frozenset(assume), refute)
        cnf = encode_search(task)
        res = solve(cnf, ENGINE)
        if res.status != SAT:
            continue
        verified_model(task, cnf, res.assignment)
        verified += 1
    print(f"criterion 5: PASS (100 satisfiable tasks verified in {attempts} draws)")


def test_criterion_6_symmetry_breaking_soundness():
    """Adding symmetry-breaking clauses never flips a satisfiable task to
    UNSAT at n in {2,3}: the pinned labeling keeps one representative of
    every isomorphism class."""
    for n in (2, 3):
        for task in family(n):
            expected = oracle_search(task) is not None
            cnf = encode_search(task, EncodeOptions(symmetry=True))
            res = solve_builtin(cnf)
            got = res.status == SAT
            assert got == expected, (
                f"{task.describe()} with symmetry: solver {res.status}, "
                f"oracle {'SAT' if expected else 'UNSAT'}"
            )
    print("criterion 6: PASS (symmetry on, still matches the oracle)")


def test_criterion_7_oracle_regression_constants():
    """Frozen enumeration constants: lattice counts up to isomorphism for
    n=1..5 and the empty n=3 refute-LD answer."""
    counts = tuple(len(enumerate_lattices(n, up_to_iso=True)) for n in range(1, 6))
    assert counts == (1, 1, 1, 2, 5)
    assert count_models(3, refute="LD") == 0
    print("criterion 7: PASS (lattice counts (1,1,1,2,5); n=3 refute-LD empty)")


def random_term(rng, names, max_depth):
    if max_depth == 0 or rng.random() < 0.3:
        return Variable(rng.choice(names))
    return Apply(
        rng.choice(OPS),
        random_term(rng, names, max_depth - 1),
        random_term(rng, names, max_depth - 1),
    )


def test_criterion_8_determinism_and_format(tmp_path):
    """Byte-stable DIMACS and rendering output, and a 1000-term parser
    round trip."""
    cnf = encode_search(SearchTask(2))
    write_dimacs_file(cnf, tmp_path / "base_n2.cnf")
    assert (tmp_path / "base_n2.cnf").read_bytes() == (GOLDEN / "base_n2.cnf").read_bytes()

    meet, join = chain_tables(2)
    chain = make_binar(meet, join, meet)
    assert cayley_latex(chain, "mult") == (GOLDEN / "two_chain_mult.tex").read_text()
    assert hasse_dot(chain) == (GOLDEN / "two_chain_hasse.dot").read_text()

    m3_meet, m3_join = lattice_tables_from_leq(M3_LEQ)
    m3 = make_binar(m3_meet, m3_join, [[0] * 5 for _ in range(5)])
    assert cayley_latex(m3, "mult") == (GOLDEN / "m3_mult.tex").read_text()
    assert hasse_dot(m3) == (GOLDEN / "m3_hasse.dot").read_text()
    assert hasse_tikz(m3) == (GOLDEN / "m3_hasse.tex").read_text()

    rng = random.Random(1729)
    for _ in range(1000):
        term = random_term(rng, ("x", "y", "z", "w", "alpha"), 5)
        assert parse_term(format_term(term)) == term
    print("criterion 8: PASS (goldens byte-identical; 1000-term round trip)")
