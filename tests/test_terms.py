import random

import pytest

from resbinar.terms import (
    Apply,
    DISTRIBUTIVITY_NAMES,
    IDENTITY_NAMES,
    Identity,
    LATTICE_IDENTITIES,
    OPS,
    TermSyntaxError,
    UnknownName,
    Variable,
    builtin,
    format_identity,
    format_term,
    identity_variables,
    parse_identity,
    parse_term,
    term_variables,
)


def test_parse_simple_meet():
    assert parse_term("x ^ y") == Apply("meet", Variable("x"), Variable("y"))


def test_parse_nested():
    t = parse_term("x ^ (y v z)")
    assert t == Apply("meet", Variable("x"), Apply("join", Variable("y"), Variable("z")))


def test_single_operator_chain_folds_left():
    t = parse_term("x ^ y ^ z")
    assert t == Apply("meet", Apply("meet", Variable("x"), Variable("y")), Variable("z"))


def test_mixed_chain_requires_parentheses():
    # "x ^ y v z" is ambiguous without a precedence convention, so it is
    # rejected rather than silently grouped.
    with pytest.raises(TermSyntaxError):
        parse_term("x ^ y v z")


def test_parenthesized_mixed_term_parses():
    t = parse_term("(x ^ y) v z")
    assert t == Apply("join", Apply("meet", Variable("x"), Variable("y")), Variable("z"))


def test_all_five_operators():
    for sym, op in (("^", "meet"), ("v", "join"), ("*", "mult"),
                    ("\\", "lres"), ("/", "rres")):
        t = parse_term(f"x {sym} y")
        assert isinstance(t, Apply) and t.op == op
    assert set(OPS) == {"meet", "join", "mult", "lres", "rres"}


def test_syntax_error_carries_position():
    with pytest.raises(TermSyntaxError) as info:
        parse_term("x ^ ?")
    assert info.value.position == 4


def test_unbalanced_parenthesis():
    with pytest.raises(TermSyntaxError):
        parse_term("(x ^ y")
    with pytest.raises(TermSyntaxError):
        parse_term("x ^ y)")


def test_empty_input():
    with pytest.raises(TermSyntaxError):
        parse_term("")


def test_v_is_an_operator_not_a_name():
    with pytest.raises(TermSyntaxError):
        parse_term("v")
    assert parse_term("velocity") == Variable("velocity")


def test_parse_identity_requires_one_equals():
    with pytest.raises(TermSyntaxError):
        parse_identity("x ^ y")
    with pytest.raises(TermSyntaxError):
        parse_identity("x = y = z")


def test_identity_name_is_metadata_not_identity():
    a = parse_identity("x ^ y = y ^ x", name="a")
    b = parse_identity("x ^ y = y ^ x", name="b")
    assert a == b
    assert a.name == "a" and b.name == "b"


def test_format_term_fully_parenthesized():
    assert format_term(builtin("D1").lhs) == "(x * (y ^ z))"
    assert format_term(builtin("LD").rhs) == "((x ^ y) v (x ^ z))"


def test_builtin_d5_text():
    assert format_identity(builtin("D5")) == "(x ^ y) \\ z = (x \\ z) v (y \\ z)"


def test_builtin_catalogue_names():
    assert DISTRIBUTIVITY_NAMES == ("D1", "D2", "D3", "D4", "D5", "D6")
    assert IDENTITY_NAMES == DISTRIBUTIVITY_NAMES + ("LD",)
    for name in IDENTITY_NAMES:
        assert isinstance(builtin(name), Identity)
    for name in ("LATTICE", "RES"):
        with pytest.raises(UnknownName):
            builtin(name)


def test_format_identity_roundtrip():
    for name in IDENTITY_NAMES:
        ident = builtin(name)
        assert parse_identity(format_identity(ident)) == ident


def test_builtin_unknown_name():
    with pytest.raises(UnknownName):
        builtin("Q7")


def test_distributivity_laws_mention_exactly_xyz():
    for name in DISTRIBUTIVITY_NAMES + ("LD",):
        ident = builtin(name)
        assert set(identity_variables(ident)) == {"x", "y", "z"}


def depth(t):
    if isinstance(t, Variable):
        return 0
    return 1 + max(depth(t.left), depth(t.right))


def test_distributivity_laws_have_depth_two_sides():
    for name in DISTRIBUTIVITY_NAMES + ("LD",):
        ident = builtin(name)
        assert depth(ident.lhs) == 2
        assert depth(ident.rhs) == 2


def test_lattice_identities_are_the_usual_eight():
    assert len(LATTICE_IDENTITIES) == 8
    names = {ident.name for ident in LATTICE_IDENTITIES}
    assert "meet-absorption" in names and "join-absorption" in names


def test_no_catalogue_identity_has_a_bare_variable_where_the_encoder_forbids_it():
    # The encoder forces each assumed identity's left side into its right
    # side's value, and a refutation compares two table-derived values.
    for ident in LATTICE_IDENTITIES + tuple(builtin(n) for n in IDENTITY_NAMES):
        assert not isinstance(ident.lhs, Variable), ident.name
    for name in IDENTITY_NAMES:
        assert not isinstance(builtin(name).rhs, Variable), name


def test_term_variables_sorted_and_deduplicated():
    assert term_variables(parse_term("(b ^ a) v b")) == ("a", "b")


def random_term(rng, vars, max_depth):
    if max_depth == 0 or rng.random() < 0.3:
        return Variable(rng.choice(vars))
    op = rng.choice(OPS)
    return Apply(op, random_term(rng, vars, max_depth - 1),
                 random_term(rng, vars, max_depth - 1))


def test_format_parse_roundtrip_sampled():
    rng = random.Random(7)
    for _ in range(200):
        t = random_term(rng, ("x", "y", "z", "w"), 4)
        assert parse_term(format_term(t)) == t
