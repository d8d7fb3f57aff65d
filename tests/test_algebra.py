import itertools
import random

import pytest

from resbinar.algebra import (
    FiniteBinar,
    NotResiduated,
    OrderInconsistent,
    UnknownOp,
    Violation,
    binar_from_dict,
    binar_to_dict,
    canonical_form,
    check_identity,
    check_lattice,
    check_residuation,
    covering_relation,
    derive_residuals,
    lattice_tables,
    load_model,
    order_from_tables,
    relabel,
    save_model,
)
from resbinar.terms import builtin

from conftest import (
    M3_LEQ,
    chain_tables,
    lattice_tables_from_leq,
    leq_from_pairs,
    make_binar,
)


def test_derive_order_two_chain(two_chain_min):
    leq = order_from_tables(two_chain_min.meet, two_chain_min.join)
    assert leq == ((True, True), (False, True))


def test_order_from_tables_rejects_disagreeing_join():
    meet, _ = chain_tables(2)
    with pytest.raises(OrderInconsistent):
        order_from_tables(
            tuple(tuple(r) for r in meet), tuple(tuple(r) for r in meet)
        )


def test_order_from_tables_rejects_nonpartial_order():
    # These tables induce both 0<=1 and 1<=0.
    meet = ((0, 0), (1, 1))
    join = ((0, 1), (0, 1))
    with pytest.raises(OrderInconsistent) as info:
        order_from_tables(meet, join)
    assert "not antisymmetric" in str(info.value)


def test_check_lattice_passes_on_chain(two_chain_min):
    assert check_lattice(two_chain_min).passed
    assert check_lattice(two_chain_min).verdict == "pass"


def test_check_lattice_flags_constant_join():
    meet, _ = chain_tables(2)
    const0 = [[0, 0], [0, 0]]
    b = FiniteBinar(2, meet, const0, const0, const0, const0)
    report = check_lattice(b)
    assert not report.passed
    hits = [v for v in report.violations if v.axiom == "join-absorption"]
    assert any(v.env == (("x", 1), ("y", 0)) for v in hits)


def test_check_residuation_passes(two_chain_min, m3_zero):
    assert check_residuation(two_chain_min).passed
    assert check_residuation(m3_zero).passed


def test_check_residuation_flags_bad_mult():
    # With mult=max on the 2-chain, {y : max(1,y) <= 0} is empty, so the
    # triple (1,0,0) disagrees no matter what lres table is supplied.
    meet, join = chain_tables(2)
    bad = (("x", 1), ("y", 0), ("z", 0))
    for cells in itertools.product(range(2), repeat=4):
        lres = (tuple(cells[:2]), tuple(cells[2:]))
        b = FiniteBinar(2, meet, join, join, lres, lres)
        report = check_residuation(b)
        assert not report.passed
        assert any(
            v.env == bad and v.axiom == "residuation:mult-lres"
            for v in report.violations
        )


def test_check_identity_ld_fails_on_m3(m3_zero):
    hit = check_identity(m3_zero, builtin("LD"))
    assert isinstance(hit, Violation) and hit.axiom == "LD"
    # lexicographically first counterexample
    assert hit.env == (("x", 1), ("y", 2), ("z", 3))
    assert (hit.lhs, hit.rhs) == (1, 0)


def test_check_identity_ld_holds_on_chain(two_chain_min):
    assert check_identity(two_chain_min, builtin("LD")) is None


def test_lattice_tables_match_the_reference_on_every_order():
    # every order refined by 0 < 1 < ... < n-1, built from its strict pairs
    # without the oracle's own order enumerator
    for n in range(1, 6):
        strict = [(x, y) for x in range(n) for y in range(x + 1, n)]
        for k in range(len(strict) + 1):
            for pairs in itertools.combinations(strict, k):
                leq = leq_from_pairs(n, pairs)
                try:
                    meet, join = lattice_tables_from_leq(leq)
                except AssertionError:
                    assert lattice_tables(leq) is None, (n, pairs)
                    continue
                want = (tuple(map(tuple, meet)), tuple(map(tuple, join)))
                assert lattice_tables(leq) == want, (n, pairs)


def test_derive_residuals_rejects_an_order_that_is_no_lattice():
    antichain = ((True, False), (False, True))
    with pytest.raises(OrderInconsistent):
        derive_residuals(antichain, ((0, 0), (0, 0)))


def test_derive_residuals_two_chain_min():
    meet, join = chain_tables(2)
    order = order_from_tables(
        tuple(tuple(r) for r in meet), tuple(tuple(r) for r in join)
    )
    lres, rres = derive_residuals(order, tuple(tuple(r) for r in meet))
    assert lres == ((1, 1), (0, 1))
    assert rres == ((1, 0), (1, 1))


def test_derive_residuals_rejects_join_mult():
    meet, join = chain_tables(2)
    order = order_from_tables(
        tuple(tuple(r) for r in meet), tuple(tuple(r) for r in join)
    )
    with pytest.raises(NotResiduated) as info:
        derive_residuals(order, tuple(tuple(r) for r in join))
    assert info.value.cell == (1, 0) and info.value.side == "left"


def test_derive_residuals_constant_bottom_gives_constant_top():
    meet, join = lattice_tables_from_leq(M3_LEQ)
    order = order_from_tables(
        tuple(tuple(r) for r in meet), tuple(tuple(r) for r in join)
    )
    zero = tuple((0,) * 5 for _ in range(5))
    lres, rres = derive_residuals(order, zero)
    assert lres == tuple((4,) * 5 for _ in range(5))
    assert rres == tuple((4,) * 5 for _ in range(5))


def test_derive_residuals_requires_downward_closed_satisfaction():
    # On the 4-chain let mult[0][y] be 0 except mult[0][1]=3.  The set
    # {y : 0*y <= 0} = {0,2,3} has join 3 but is not a down-set (1 <= 3
    # fails it), so no residual exists even though the join lies in the set.
    meet, join = chain_tables(4)
    order = order_from_tables(
        tuple(tuple(r) for r in meet), tuple(tuple(r) for r in join)
    )
    mult = [[0] * 4 for _ in range(4)]
    mult[0][1] = 3
    with pytest.raises(NotResiduated):
        derive_residuals(order, tuple(tuple(r) for r in mult))


def test_derive_residuals_round_trips_through_check():
    # Whenever derive_residuals succeeds, the assembled algebra must pass
    # check_residuation.  Exercised over every mult table on the 2-chain
    # and a sample on the 2x2 diamond.
    meet, join = chain_tables(2)
    order = order_from_tables(
        tuple(tuple(r) for r in meet), tuple(tuple(r) for r in join)
    )
    ok = 0
    for cells in itertools.product(range(2), repeat=4):
        mult = (tuple(cells[:2]), tuple(cells[2:]))
        try:
            lres, rres = derive_residuals(order, mult)
        except NotResiduated:
            continue
        b = FiniteBinar(2, meet, join, mult, lres, rres)
        assert check_residuation(b).passed
        ok += 1
    assert ok == 2  # mult=min and mult=constant-0

    rng = random.Random(3)
    leq = [[x | y == y for y in range(4)] for x in range(4)]  # bitmask diamond
    meet4, join4 = lattice_tables_from_leq(leq)
    order4 = order_from_tables(
        tuple(tuple(r) for r in meet4), tuple(tuple(r) for r in join4)
    )
    # x & y & c is residuated on the Boolean diamond for every constant c;
    # random tables mostly are not and exercise the failure path.
    candidates = [
        tuple(tuple(x & y & c for y in range(4)) for x in range(4)) for c in range(4)
    ] + [
        tuple(tuple(rng.randrange(4) for _ in range(4)) for _ in range(4))
        for _ in range(300)
    ]
    found = 0
    for mult in candidates:
        try:
            lres, rres = derive_residuals(order4, mult)
        except NotResiduated:
            continue
        b = FiniteBinar(4, meet4, join4, mult, lres, rres)
        assert check_residuation(b).passed
        found += 1
    assert found >= 4


def test_mult_monotone_on_residuated_models(two_chain_min, m3_zero, n5_zero):
    # Residuation forces mult to preserve order in both arguments.
    for b in (two_chain_min, m3_zero, n5_zero):
        leq = order_from_tables(b.meet, b.join)
        for x, y, u in itertools.product(range(b.size), repeat=3):
            if leq[x][y]:
                assert leq[b.mult[x][u]][b.mult[y][u]]
                assert leq[b.mult[u][x]][b.mult[u][y]]


def test_covering_relation_m3(m3_zero):
    covers = set(covering_relation(order_from_tables(m3_zero.meet, m3_zero.join)))
    assert covers == {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}


def test_covering_relation_chain():
    meet, join = chain_tables(4)
    b = make_binar(meet, join, meet)
    assert set(covering_relation(order_from_tables(b.meet, b.join))) == {
        (0, 1), (1, 2), (2, 3)
    }


def _form(b):
    return canonical_form(b.ops())[0]


def test_are_isomorphic_identity(m3_zero):
    form, perm = canonical_form(m3_zero.ops())
    assert form == tuple(relabel(m3_zero.table(op), perm) for op in sorted(m3_zero.ops()))


def test_are_isomorphic_atom_swap(m3_zero):
    # Relabeling the three atoms of M3 commutes with all operations; the
    # second relabeling also moves bottom and top, so its tables differ.
    for perm in ((0, 2, 3, 1, 4), (3, 0, 4, 1, 2)):
        other = FiniteBinar(5, **{op: relabel(t, perm) for op, t in m3_zero.ops().items()})
        assert (other == m3_zero) == (perm[0] == 0)
        assert _form(other) == _form(m3_zero)


def test_are_isomorphic_distinguishes_mult(two_chain_min):
    meet, join = chain_tables(2)
    zero = make_binar(meet, join, [[0, 0], [0, 0]])
    assert _form(two_chain_min) != _form(zero)


def test_table_isomorphism_relabeled_chain():
    a = {"meet": ((0, 0), (0, 1)), "join": ((0, 1), (1, 1)), "mult": ((0, 0), (0, 1))}
    # same algebra with labels 0 and 1 swapped: min becomes max
    b = {"meet": ((0, 1), (1, 1)), "join": ((0, 0), (0, 1)), "mult": ((0, 1), (1, 1))}
    (form_a, perm_a), (form_b, perm_b) = canonical_form(a), canonical_form(b)
    assert form_a == form_b
    assert (perm_a, perm_b) == ((0, 1), (1, 0))


def _least_relabeling(n, tables):
    """The least tuple of relabeled tables, in name order, over all n! perms."""
    names = sorted(tables)
    best = None
    for perm in itertools.permutations(range(n)):
        form = []
        for name in names:
            out = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    out[perm[x]][perm[y]] = perm[tables[name][x][y]]
            form.append(tuple(map(tuple, out)))
        if best is None or tuple(form) < best:
            best = tuple(form)
    return best


def test_table_isomorphism_agrees_with_brute_force():
    """Referee: on every pair, self-pairs included, of the labeled lattices
    at n = 4 and of the residuated binars at n = 3, two canonical forms are
    equal exactly when the brute-force least relabelings are, and each
    form is the tables relabeled by the perm returned with it."""
    from resbinar.oracle import enumerate_lattices, enumerate_residuated_binars

    families = (
        (4, [{"meet": m, "join": j} for m, j in enumerate_lattices(4)]),
        (3, [b.ops() for b in enumerate_residuated_binars(3)]),
    )
    pairs = 0
    for n, items in families:
        keys = [_least_relabeling(n, tables) for tables in items]
        forms = []
        for tables in items:
            form, perm = canonical_form(tables)
            assert sorted(perm) == list(range(n))
            assert form == tuple(relabel(tables[name], perm) for name in sorted(tables))
            forms.append(form)
        for i, j in itertools.combinations_with_replacement(range(len(items)), 2):
            assert (forms[i] == forms[j]) == (keys[i] == keys[j]), (n, i, j)
            pairs += 1
    assert pairs == 7926


def test_finite_binar_validates_shape():
    meet, join = chain_tables(2)
    with pytest.raises(ValueError):
        FiniteBinar(2, meet, join, [[0, 0]], meet, meet)
    with pytest.raises(ValueError):
        FiniteBinar(2, meet, join, [[0, 2], [0, 0]], meet, meet)


def test_finite_binar_takes_only_ints():
    meet, join = chain_tables(2)
    for bad in (1.9, 1.0, True, "1"):
        with pytest.raises(ValueError, match="not an int"):
            FiniteBinar(2, meet, join, [[0, 0], [0, bad]], meet, meet)
    for size in (2.0, True, "2"):
        with pytest.raises(ValueError, match="positive int"):
            FiniteBinar(size, meet, join, meet, meet, meet)


def test_table_lookup_unknown_op(two_chain_min):
    with pytest.raises(UnknownOp):
        two_chain_min.table("plus")


def test_model_json_roundtrip(tmp_path, m3_zero):
    data = binar_to_dict(m3_zero)
    assert data["size"] == 5
    assert set(data["ops"]) == {"meet", "join", "mult", "lres", "rres"}
    assert binar_from_dict(data) == m3_zero

    path = tmp_path / "m3.json"
    save_model(m3_zero, path)
    assert load_model(path) == m3_zero
