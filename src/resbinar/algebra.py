"""Finite lattice-ordered algebras given by explicit operation tables.

A model lives on the carrier {0..n-1} and carries five total binary
operations: meet, join, mult, lres, rres.  Table orientation follows the
written expression: ``lres[x][z]`` is x\\z and ``rres[z][y]`` is z/y, i.e.
the first index is the left-hand symbol.  The partial order is never stored;
it is derived from the meet table and cross-checked against join, as an
`Order`: the boolean matrix whose [x][y] entry says x <= y.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .terms import (
    Identity,
    LATTICE_IDENTITIES,
    OPS,
    Term,
    Variable,
    builtin,
    identity_variables,
)

if TYPE_CHECKING:
    from .encoder import SearchTask

Table = tuple[tuple[int, ...], ...]
Order = tuple[tuple[bool, ...], ...]


class OrderInconsistent(ValueError):
    """Meet/join tables do not induce a single partial order, or an order
    is not a lattice; `pair` is the failing pair, when there is one."""

    def __init__(self, x: int | None, y: int | None, reason: str):
        self.pair = None if x is None else (x, y)
        where = "" if x is None else f" at ({x},{y})"
        super().__init__(f"order inconsistent{where}: {reason}")


class NotResiduated(ValueError):
    """No residual value exists for some table cell."""

    def __init__(self, row: int, col: int, side: str):
        self.cell = (row, col)
        self.side = side
        super().__init__(f"no {side} residual at cell ({row},{col})")


class UnknownOp(KeyError):
    pass


def freeze_table(rows: Iterable[Iterable[int]]) -> Table:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class FiniteBinar:
    """Carrier {0..size-1} with five total operation tables."""

    size: int
    meet: Table
    join: Table
    mult: Table
    lres: Table
    rres: Table

    def __post_init__(self):
        # `type(...) is int` keeps out bool, float and str from model files
        if type(self.size) is not int or self.size < 1:
            raise ValueError(f"size must be a positive int: {self.size!r}")
        for op in OPS:
            table = freeze_table(getattr(self, op))
            if len(table) != self.size or any(len(row) != self.size for row in table):
                raise ValueError(f"{op} table is not {self.size}x{self.size}")
            for row in table:
                for v in row:
                    if type(v) is not int or not 0 <= v < self.size:
                        raise ValueError(f"{op} entry {v!r} is not an int in 0..{self.size - 1}")
            object.__setattr__(self, op, table)

    def table(self, op: str) -> Table:
        if op not in OPS:
            raise UnknownOp(op)
        return getattr(self, op)

    def ops(self) -> dict[str, Table]:
        return {op: getattr(self, op) for op in OPS}


@dataclass(frozen=True)
class Violation:
    """One failed instance of a named axiom or identity: the assignment and
    both side values."""

    axiom: str
    env: tuple[tuple[str, int], ...]
    lhs: int
    rhs: int


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


# --- order -------------------------------------------------------------------

def order_from_tables(meet: Table, join: Table) -> Order:
    """The leq matrix of the order with x<=y iff meet[x][y]=x; join[x][y]=y
    must agree."""
    n = len(meet)
    leq = tuple(tuple(meet[x][y] == x for y in range(n)) for x in range(n))
    for x in range(n):
        for y in range(n):
            if (join[x][y] == y) != leq[x][y]:
                raise OrderInconsistent(x, y, "meet and join disagree")
    for x in range(n):
        if not leq[x][x]:
            raise OrderInconsistent(x, x, "not reflexive")
    for x in range(n):
        for y in range(n):
            if x != y and leq[x][y] and leq[y][x]:
                raise OrderInconsistent(x, y, "not antisymmetric")
    for x in range(n):
        for y in range(n):
            if not leq[x][y]:
                continue
            for z in range(n):
                if leq[y][z] and not leq[x][z]:
                    raise OrderInconsistent(x, z, "not transitive")
    return leq


def covering_relation(leq: Order) -> tuple[tuple[int, int], ...]:
    """Edges (x, y) with x strictly below y and nothing strictly between."""
    n = len(leq)
    edges = []
    for x in range(n):
        for y in range(n):
            if x == y or not leq[x][y]:
                continue
            if any(z != x and z != y and leq[x][z] and leq[z][y] for z in range(n)):
                continue
            edges.append((x, y))
    return tuple(edges)


def lattice_tables(leq: Order) -> tuple[Table, Table] | None:
    """Meet and join tables of the partial order given by a boolean matrix,
    or None when some pair has no greatest lower or no least upper bound."""
    n = len(leq)
    tables = []
    # the meet is the join of the reversed order
    for above in (tuple(zip(*leq)), leq):
        ups = [[z for z in range(n) if above[x][z]] for x in range(n)]
        rows = []
        for x in range(n):
            row = []
            for y in range(n):
                # the common bounds form an up-set, so its least element is
                # the bound whose own up-set is all of it
                bounds = [z for z in ups[x] if above[y][z]]
                least = next((u for u in bounds if len(ups[u]) == len(bounds)), None)
                if least is None:
                    return None
                row.append(least)
            rows.append(tuple(row))
        tables.append(tuple(rows))
    return tables[0], tables[1]


# --- evaluation and identity checking ----------------------------------------

@cache
def _tuples(n: int, arity: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Every tuple of `arity` values in {0..n-1}, in lexicographic order,
    and each position's column: the values it takes over those tuples."""
    tuples = tuple(itertools.product(range(n), repeat=arity))
    return tuples, tuple(tuple(tup[i] for tup in tuples) for i in range(arity))


def _values(t: Term, columns: Mapping[str, tuple[int, ...]],
            tables: dict[str, Table]) -> Sequence[int]:
    """t's value on every tuple of _tuples, one comprehension per operation
    node (hot path)."""
    if isinstance(t, Variable):
        return columns[t.name]
    table = tables[t.op]
    return [table[a][b] for a, b in zip(_values(t.left, columns, tables),
                                        _values(t.right, columns, tables))]


def _violations(b: FiniteBinar, ident: Identity) -> Iterator[Violation]:
    """Every violating assignment, in lexicographic tuple order."""
    names = identity_variables(ident)
    tuples, columns = _tuples(b.size, len(names))
    columns = dict(zip(names, columns))
    tables = b.ops()
    lhs = _values(ident.lhs, columns, tables)
    rhs = _values(ident.rhs, columns, tables)
    for i in itertools.compress(range(len(tuples)), map(operator.ne, lhs, rhs)):
        yield Violation(ident.name, tuple(zip(names, tuples[i])), lhs[i], rhs[i])


def check_identity(b: FiniteBinar, ident: Identity) -> Violation | None:
    """First violating assignment in lexicographic tuple order, or None."""
    return next(_violations(b, ident), None)


def check_lattice(b: FiniteBinar) -> VerificationReport:
    """All eight lattice equations over all tuples."""
    return VerificationReport(tuple(
        v for ident in LATTICE_IDENTITIES for v in _violations(b, ident)
    ))


def check_residuation(b: FiniteBinar) -> VerificationReport:
    """Three-way residuation equivalence on every triple.

    For each (x, y, z) the conditions  x*y <= z,  y <= x\\z,  x <= z/y
    must agree; every disagreeing pair of conditions is reported, with lhs
    and rhs carrying the two truth values.
    """
    leq = order_from_tables(b.meet, b.join)
    n = b.size
    mult, lres, rres = b.mult, b.lres, b.rres
    violations = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                prod_below = leq[mult[x][y]][z]
                lres_above = leq[y][lres[x][z]]
                rres_above = leq[x][rres[z][y]]
                env = (("x", x), ("y", y), ("z", z))
                if prod_below != lres_above:
                    violations.append(
                        Violation("residuation:mult-lres", env, int(prod_below), int(lres_above))
                    )
                if prod_below != rres_above:
                    violations.append(
                        Violation("residuation:mult-rres", env, int(prod_below), int(rres_above))
                    )
    return VerificationReport(tuple(violations))


def verify(task: "SearchTask", model: FiniteBinar) -> list[str]:
    """Everything that keeps the model from answering the task; empty when
    it does.

    Checks the size, the lattice laws, residuation, each assumed identity
    and the refuted identity, in that order.  Residuation is checked only
    on a lattice, since the order it compares by exists only there.
    """
    if model.size != task.size:
        return [f"size {model.size} != {task.size}"]
    complaints = []
    lattice = check_lattice(model)
    if not lattice.passed:
        complaints.append(f"lattice axioms fail ({len(lattice.violations)} violations)")
    else:
        residuation = check_residuation(model)
        if not residuation.passed:
            complaints.append(
                f"residuation fails ({len(residuation.violations)} violations)"
            )
    for name in sorted(task.assume):
        if check_identity(model, builtin(name)) is not None:
            complaints.append(f"assumed {name} fails")
    if task.refute is not None and check_identity(model, builtin(task.refute)) is None:
        complaints.append(f"{task.refute} holds but should fail")
    return complaints


def _residual(line, z: int, leq: Order, join: Table) -> int | None:
    """The residual of z along one row or column of mult, or None.

    With S = {i : line[i] <= z}, the residual can only be the join g of S,
    and it exists exactly when S is nonempty and everything below g is in S,
    i.e. S is the down-set of g.
    """
    n = len(line)
    sat = [i for i in range(n) if leq[line[i]][z]]
    if not sat:
        return None
    best = sat[0]
    for i in sat[1:]:
        best = join[best][i]
    if any(leq[i][best] and not leq[line[i]][z] for i in range(n)):
        return None
    return best


def derive_residuals(leq: Order, mult: Table) -> tuple[Table, Table]:
    """Residual tables forced by mult and the order, if they exist.

    lres[x][z] is the residual of z along row x of mult, rres[z][y] along
    column y.  Raises NotResiduated naming the first failing cell, left
    table first.  Raises OrderInconsistent if the order is not a lattice.
    """
    n = len(leq)
    tables = lattice_tables(leq)
    if tables is None:
        raise OrderInconsistent(None, None, "not a lattice")
    join = tables[1]
    columns = tuple(zip(*mult))

    def residual(line, z: int, cell: tuple[int, int], side: str) -> int:
        value = _residual(line, z, leq, join)
        if value is None:
            raise NotResiduated(*cell, side)
        return value

    lres = tuple(
        tuple(residual(mult[x], z, (x, z), "left") for z in range(n)) for x in range(n)
    )
    rres = tuple(
        tuple(residual(columns[y], z, (z, y), "right") for y in range(n)) for z in range(n)
    )
    return lres, rres


# --- isomorphism ---------------------------------------------------------------

def relabel(table: Table, perm: tuple[int, ...]) -> Table:
    """The table with every element x renamed perm[x]."""
    n = len(table)
    inv = sorted(range(n), key=perm.__getitem__)  # inv[perm[x]] == x
    return tuple(
        tuple(perm[table[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
    )


def _linear_extensions(leq: Order) -> Iterator[tuple[int, ...]]:
    """Every perm under which the order refines 0 < 1 < ... < n-1, i.e.
    x <= y implies perm[x] <= perm[y]."""
    n = len(leq)
    perm = [-1] * n

    def place(k: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(perm)
            return
        for x in range(n):
            if perm[x] < 0 and all(perm[y] >= 0 for y in range(n) if y != x and leq[y][x]):
                perm[x] = k
                yield from place(k + 1)
                perm[x] = -1

    yield from place(0)


def canonical_form(tables: Mapping[str, Table]) -> tuple[tuple[Table, ...], tuple[int, ...]]:
    """The least relabeling of the tables, taken in name order, and a perm
    reaching it.

    Only perms that sort the order derived from meet and join are tried, so
    two table sets with the same operation names are isomorphic exactly
    when their forms are equal.  Every linear extension of the order is
    visited: at most (n-2)! of them, as bottom and top are fixed.  That is
    at most 24 for the oracle's n <= 6, but 5,040 for M7 at n = 9.
    """
    leq = order_from_tables(tables["meet"], tables["join"])
    names = sorted(tables)
    best = None
    for perm in _linear_extensions(leq):
        form = tuple(relabel(tables[name], perm) for name in names)
        if best is None or form < best[0]:
            best = (form, perm)
    return best


# --- model files ------------------------------------------------------------

def binar_to_dict(b: FiniteBinar) -> dict:
    return {
        "size": b.size,
        "ops": {op: [list(row) for row in getattr(b, op)] for op in OPS},
    }


def binar_from_dict(data: Mapping) -> FiniteBinar:
    try:
        return FiniteBinar(data["size"], **{op: data["ops"][op] for op in OPS})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model object: {exc}") from None


def load_model(path: str | Path) -> FiniteBinar:
    with open(path, "r", encoding="utf-8") as handle:
        return binar_from_dict(json.load(handle))


def save_model(b: FiniteBinar, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(binar_to_dict(b), handle, indent=1)
        handle.write("\n")
