import hashlib
import itertools
import json

import pytest

from resbinar.algebra import (
    binar_to_dict,
    canonical_form,
    check_lattice,
    check_residuation,
)
from resbinar.encoder import SearchTask
from resbinar.oracle import (
    BoundExceeded,
    EXHAUSTIVE_BOUND,
    LATTICE_BOUND,
    count_models,
    enumerate_lattices,
    enumerate_residuated_binars,
    identity_profile,
    oracle_search,
)
from resbinar.terms import IDENTITY_NAMES, LATTICE_IDENTITIES, builtin

from conftest import M3_LEQ, N5_LEQ, lattice_tables_from_leq


# Counts frozen from the first verified run of this oracle, cross-checked
# against an independent brute-force scan over raw tables at n=2.
LABELED_LATTICE_COUNTS = {1: 1, 2: 2, 3: 6, 4: 36, 5: 380}
ISO_LATTICE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
LABELED_BINAR_COUNTS = {1: 1, 2: 4, 3: 120}


def test_labeled_lattice_counts():
    for n, want in LABELED_LATTICE_COUNTS.items():
        assert len(enumerate_lattices(n)) == want


def test_lattice_counts_up_to_iso():
    for n, want in ISO_LATTICE_COUNTS.items():
        assert len(enumerate_lattices(n, up_to_iso=True)) == want


def test_lattice_bound():
    with pytest.raises(BoundExceeded):
        enumerate_lattices(LATTICE_BOUND + 1)
    with pytest.raises(BoundExceeded):
        enumerate_lattices(0)


def test_every_enumerated_lattice_verifies():
    from conftest import constant_bottom_mult, make_binar

    for meet, join in enumerate_lattices(4):
        b = make_binar(
            [list(r) for r in meet], [list(r) for r in join],
            constant_bottom_mult(meet),
        )
        assert check_lattice(b).passed


def test_m3_and_n5_appear_at_size_five():
    """The two minimal non-distributive lattices are found, and every other
    size-5 class satisfies the distributive law."""
    m3_meet, m3_join = lattice_tables_from_leq(M3_LEQ)
    n5_meet, n5_join = lattice_tables_from_leq(N5_LEQ)
    m3 = {"meet": tuple(map(tuple, m3_meet)), "join": tuple(map(tuple, m3_join))}
    n5 = {"meet": tuple(map(tuple, n5_meet)), "join": tuple(map(tuple, n5_join))}
    named = {canonical_form(m3)[0]: "m3", canonical_form(n5)[0]: "n5"}

    classes = list(enumerate_lattices(5, up_to_iso=True))
    hits = {"m3": 0, "n5": 0, "ld": 0}
    from conftest import constant_bottom_mult, make_binar
    from resbinar.algebra import check_identity

    for meet, join in classes:
        name = named.get(canonical_form({"meet": meet, "join": join})[0])
        if name is not None:
            hits[name] += 1
        else:
            b = make_binar(
                [list(r) for r in meet], [list(r) for r in join],
                constant_bottom_mult(meet),
            )
            assert check_identity(b, builtin("LD")) is None
            hits["ld"] += 1
    assert hits == {"m3": 1, "n5": 1, "ld": 3}


def test_labeled_binar_counts():
    for n, want in LABELED_BINAR_COUNTS.items():
        assert sum(1 for _ in enumerate_residuated_binars(n)) == want


def test_two_element_binars_are_exactly_min_and_zero():
    found = {b.mult for b in enumerate_residuated_binars(2)}
    # two labelings of the 2-chain x two residuated mult tables each
    assert ((0, 0), (0, 1)) in found  # mult = meet on 0<1
    assert ((0, 0), (0, 0)) in found  # constant bottom on 0<1
    assert len(list(enumerate_residuated_binars(2))) == 4


def test_every_enumerated_binar_verifies():
    for b in enumerate_residuated_binars(3):
        assert check_lattice(b).passed
        assert check_residuation(b).passed


def test_exhaustive_bound():
    for n in (0, EXHAUSTIVE_BOUND + 1):
        with pytest.raises(BoundExceeded):
            list(enumerate_residuated_binars(n))


def test_identity_profile_full_at_small_sizes():
    # Every residuated binar on up to three elements satisfies all six
    # distributivity laws and lattice distributivity.
    full = (1 << len(IDENTITY_NAMES)) - 1
    for n in (1, 2, 3):
        for b in enumerate_residuated_binars(n):
            assert identity_profile(b) == full


def test_count_models_matches_profiles():
    assert count_models(3) == 120
    assert count_models(3, refute="LD") == 0
    assert count_models(3, refute="D1") == 0
    assert count_models(3, assume=("D1", "D2", "LD")) == 120
    assert count_models(2, assume=IDENTITY_NAMES) == 4
    for bad in ({"assume": ["Q9"]}, {"refute": "Q9"}):
        with pytest.raises(ValueError, match="not one of"):
            count_models(3, **bad)
    with pytest.raises(BoundExceeded):
        count_models(0, assume=["Q9"])


def test_oracle_search_answers():
    sat = oracle_search(SearchTask.make(3, assume=("D1", "LD")))
    assert sat is not None
    assert check_residuation(sat).passed
    assert oracle_search(SearchTask.make(3, refute="D3")) is None
    assert oracle_search(SearchTask.make(2)) is not None


def test_oracle_search_respects_bound():
    with pytest.raises(BoundExceeded):
        oracle_search(SearchTask.make(4))


def test_catalogue_is_deterministic():
    assert enumerate_lattices(4) == enumerate_lattices(4)


# SHA-256 of the JSON of each enumeration, in the order it comes out: a
# change to how lattices or binars are enumerated must leave them as they are.
LATTICE_DIGESTS = {
    1: "3cabb44f21b758fcd608b0a3cc848e5de615457fc5e77d156b7273acfd8b29e0",
    2: "dae5459d91658e5884a655dffe9386c0f9994d200bf96fa34fe25fbb964dabd8",
    3: "3cd2694d5869ad55390ca171b438934de39a87eebae3a67862c22c63c941a212",
    4: "e07cb4d01127960a07b046a3413577643b2b5cd356e6e921512e5e606cd0e4e0",
    5: "5633f8dbf649dc8d3d2c4216ea4c41d93792a19b38b389ee7e2119fb5d5cfbf7",
}
ISO_LATTICE_DIGESTS = {
    1: "3cabb44f21b758fcd608b0a3cc848e5de615457fc5e77d156b7273acfd8b29e0",
    2: "584066b119d390ec8a02e062f34aac289d98896143451bd3d74c6bac6d72d6c6",
    3: "0fc464ceb418cffd3f6135832251bd167bce778fdf6469eb09997ea928477f94",
    4: "d8f5a4ec6e554f3faab6fd6fe69b427defe791005019d4814c0877e986d5e373",
    5: "8d6a006705f99fa5fc2dcb705448aefc99bd2eda73246a35fb452c6ce973e547",
    6: "ec0eccdd3db00825c033522550dd0569f3d933a0ae2dee36ce58421540ca7e35",
}
BINAR_DIGESTS = {
    1: "338df553e2f7b1742f5c48aad9926981b7379dc21bc434b8b16797ef2356cd38",
    2: "d42911571d595fb245e715bc240dacb3fdfd8f453bbdebfcc281be821b695754",
    3: "00f135aaffdc42d1135563c82c4d17825613c0a320672144a7094b6de50c1996",
}


def _digest(items):
    return hashlib.sha256(json.dumps(list(items)).encode()).hexdigest()


def test_every_enumeration_is_as_pinned():
    assert {n: _digest(enumerate_lattices(n)) for n in LATTICE_DIGESTS} == LATTICE_DIGESTS
    assert {
        n: _digest(enumerate_lattices(n, up_to_iso=True)) for n in ISO_LATTICE_DIGESTS
    } == ISO_LATTICE_DIGESTS
    assert {
        n: _digest(map(binar_to_dict, enumerate_residuated_binars(n)))
        for n in BINAR_DIGESTS
    } == BINAR_DIGESTS
