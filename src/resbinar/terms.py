"""Term language for lattice-ordered algebras with multiplication and residuals.

Terms are built from variables and five binary operations written in ASCII:
``^`` (meet), ``v`` (join), ``*`` (multiplication), ``\\`` (left residual),
``/`` (right residual).  An identity is a universally quantified equation
between two terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

OPS = ("meet", "join", "mult", "lres", "rres")

_OP_OF_SYMBOL = {"^": "meet", "v": "join", "*": "mult", "\\": "lres", "/": "rres"}
_SYMBOL_OF_OP = {op: sym for sym, op in _OP_OF_SYMBOL.items()}


class TermSyntaxError(ValueError):
    """Malformed term or identity text."""

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"at position {position}: expected {expected}")


class UnknownName(KeyError):
    """Name not present in the built-in axiom catalogue."""


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Apply:
    op: str
    left: "Term"
    right: "Term"


Term = Variable | Apply


@dataclass(frozen=True)
class Identity:
    """A named equation ``lhs = rhs``; the name is metadata, not identity."""

    name: str = field(compare=False)
    lhs: Term
    rhs: Term


def term_variables(t: Term) -> tuple[str, ...]:
    """Sorted variable names occurring in a term."""
    out: set[str] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            out.add(node.name)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return tuple(sorted(out))


def identity_variables(ident: Identity) -> tuple[str, ...]:
    return tuple(sorted(set(term_variables(ident.lhs)) | set(term_variables(ident.rhs))))


# --- parsing ---------------------------------------------------------------

def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Returns (kind, value, position) triples.

    Kinds: 'name', 'op', '(', ')', '='.  A lone letter ``v`` is the join
    operator, so it is not available as a variable name.
    """
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()=":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _OP_OF_SYMBOL and ch != "v":
            tokens.append(("op", _OP_OF_SYMBOL[ch], i))
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "v":
                tokens.append(("op", "join", i))
            else:
                tokens.append(("name", word, i))
            i = j
            continue
        raise TermSyntaxError(i, f"term character, found {ch!r}")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int] | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok is None:
            raise TermSyntaxError(len(self.text), kind)
        if tok[0] != kind:
            raise TermSyntaxError(tok[2], kind)
        return tok

    def parse_atom(self) -> Term:
        tok = self.next()
        if tok is None:
            raise TermSyntaxError(len(self.text), "a variable or '('")
        kind, value, pos = tok
        if kind == "name":
            return Variable(value)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise TermSyntaxError(pos, "a variable or '('")

    def parse_expr(self) -> Term:
        # A chain of one operator is folded left-associatively; chains mixing
        # different operators are rejected rather than silently given some
        # precedence.
        acc = self.parse_atom()
        chain_op: str | None = None
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op":
                return acc
            _, op, pos = tok
            if chain_op is None:
                chain_op = op
            elif op != chain_op:
                raise TermSyntaxError(pos, "parentheses (operators may not be mixed)")
            self.next()
            acc = Apply(op, acc, self.parse_atom())


def parse_term(text: str) -> Term:
    """Parse a term; raises TermSyntaxError on malformed input."""
    parser = _Parser(text)
    term = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise TermSyntaxError(tok[2], "end of input")
    return term


def parse_identity(text: str, name: str = "") -> Identity:
    """Parse ``lhs = rhs``; the text must contain exactly one ``=``."""
    if text.count("=") != 1:
        raise TermSyntaxError(0, "exactly one '='")
    lhs_text, rhs_text = text.split("=")
    lhs = parse_term(lhs_text)
    # Positions in error messages for the right side are relative to the
    # full string, so reparse with the prefix retained.
    offset = len(lhs_text) + 1
    try:
        rhs = parse_term(rhs_text)
    except TermSyntaxError as exc:
        raise TermSyntaxError(exc.position + offset, exc.expected) from None
    return Identity(name=name, lhs=lhs, rhs=rhs)


def format_term(t: Term) -> str:
    """Fully parenthesized rendering; ``parse_term`` inverts it."""
    if isinstance(t, Variable):
        return t.name
    return f"({format_term(t.left)} {_SYMBOL_OF_OP[t.op]} {format_term(t.right)})"


def _format_side(t: Term) -> str:
    # The top level of an equation side needs no enclosing parentheses.
    if isinstance(t, Apply):
        return f"{format_term(t.left)} {_SYMBOL_OF_OP[t.op]} {format_term(t.right)}"
    return format_term(t)


def format_identity(ident: Identity) -> str:
    return f"{_format_side(ident.lhs)} = {_format_side(ident.rhs)}"


# --- built-in catalogue -----------------------------------------------------

DISTRIBUTIVITY_NAMES = ("D1", "D2", "D3", "D4", "D5", "D6")

_DISTRIBUTIVITY_TEXT = {
    "D1": "x * (y ^ z) = (x * y) ^ (x * z)",
    "D2": "(x ^ y) * z = (x * z) ^ (y * z)",
    "D3": "x \\ (y v z) = (x \\ y) v (x \\ z)",
    "D4": "(x v y) / z = (x / z) v (y / z)",
    "D5": "(x ^ y) \\ z = (x \\ z) v (y \\ z)",
    "D6": "x / (y ^ z) = (x / y) v (x / z)",
    "LD": "x ^ (y v z) = (x ^ y) v (x ^ z)",
}

_LATTICE_TEXT = (
    ("meet-commutative", "x ^ y = y ^ x"),
    ("join-commutative", "x v y = y v x"),
    ("meet-associative", "(x ^ y) ^ z = x ^ (y ^ z)"),
    ("join-associative", "(x v y) v z = x v (y v z)"),
    ("meet-idempotent", "x ^ x = x"),
    ("join-idempotent", "x v x = x"),
    ("meet-absorption", "x ^ (x v y) = x"),
    ("join-absorption", "x v (x ^ y) = x"),
)

_BUILTINS: dict[str, Identity] = {
    name: parse_identity(text, name=name) for name, text in _DISTRIBUTIVITY_TEXT.items()
}

LATTICE_IDENTITIES: tuple[Identity, ...] = tuple(
    parse_identity(text, name=name) for name, text in _LATTICE_TEXT
)

IDENTITY_NAMES = DISTRIBUTIVITY_NAMES + ("LD",)


def identity_name(ident: Identity | str) -> str:
    """The name of D1..D6 or LD, given by name or as the identity; a
    ValueError for anything else."""
    name = ident if isinstance(ident, str) else ident.name
    if name not in IDENTITY_NAMES:
        raise ValueError(f"not one of {IDENTITY_NAMES}: {name!r}")
    return name


def builtin(name: str) -> Identity:
    """Look up D1..D6 or LD by name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownName(name) from None
