"""Exhaustive ground truth for small sizes, independent of the CNF encoding.

Lattices are enumerated as up-set families over a numeric linear extension
and then relabeled for the labeled catalogue.  Residuated binars are
enumerated per lattice by choosing mult tables; residuals are derived from
mult and the order, never enumerated, so a size-n search touches n^(n^2)
tables per lattice instead of n^(3n^2).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .algebra import (
    FiniteBinar,
    Table,
    _residual,
    check_identity,
    derive_residuals,
    order_from_tables,
    table_isomorphism,
)
from .terms import IDENTITY_NAMES, Identity, builtin

if TYPE_CHECKING:
    from .encoder import SearchTask

LATTICE_BOUND = 6
EXHAUSTIVE_BOUND = 3
SAMPLED_BOUND = 4


class BoundExceeded(ValueError):
    pass


@dataclass(frozen=True)
class LatticeCatalogue:
    """All (meet, join) table pairs of one size, labeled or up to iso."""

    size: int
    entries: tuple[tuple[Table, Table], ...]
    up_to_iso: bool

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Table, Table]]:
        return iter(self.entries)


def _natural_orders(n: int) -> Iterator[tuple[int, ...]]:
    """Strict-up-set bitmasks of all partial orders refined by 0<1<...<n-1."""
    ups = [0] * n

    def place(i: int) -> Iterator[tuple[int, ...]]:
        if i < 0:
            yield tuple(ups)
            return
        # Any subset of {i+1..n-1} closed under the already-chosen up-sets.
        full = ((1 << n) - 1) & ~((1 << (i + 1)) - 1)
        s = full
        while True:
            rest = s
            ok = True
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if ups[j] & ~s:
                    ok = False
                    break
            if ok:
                ups[i] = s
                yield from place(i - 1)
            if s == 0:
                break
            s = (s - 1) & full

    yield from place(n - 1)


def _lattice_tables(n: int, ups: tuple[int, ...]) -> tuple[Table, Table] | None:
    """Meet/join tables if every pair has bounds, else None."""
    up = [ups[i] | (1 << i) for i in range(n)]
    down = [0] * n
    for x in range(n):
        for y in range(n):
            if up[x] >> y & 1:
                down[y] |= 1 << x
    meet_rows = []
    join_rows = []
    for x in range(n):
        mrow = []
        jrow = []
        for y in range(n):
            common = down[x] & down[y]
            glb = -1
            rest = common
            while rest:
                m = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if common & ~down[m] == 0:
                    glb = m
                    break
            if glb < 0:
                return None
            mrow.append(glb)
            common = up[x] & up[y]
            lub = -1
            rest = common
            while rest:
                m = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if common & ~up[m] == 0:
                    lub = m
                    break
            if lub < 0:
                return None
            jrow.append(lub)
        meet_rows.append(tuple(mrow))
        join_rows.append(tuple(jrow))
    return tuple(meet_rows), tuple(join_rows)


def _permute_table(table: Table, perm: tuple[int, ...]) -> Table:
    n = len(table)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(
        tuple(perm[table[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
    )


def enumerate_lattices(n: int, up_to_iso: bool = False) -> LatticeCatalogue:
    """Every lattice on {0..n-1}; labeled by default, one per class if asked."""
    if not 1 <= n <= LATTICE_BOUND:
        raise BoundExceeded(f"lattice enumeration supports 1 <= n <= {LATTICE_BOUND}")
    natural = []
    for ups in _natural_orders(n):
        tables = _lattice_tables(n, ups)
        if tables is not None:
            natural.append(tables)
    if up_to_iso:
        reps: list[tuple[Table, Table]] = []
        for meet, join in natural:
            ops = {"meet": meet, "join": join}
            if not any(
                table_isomorphism(n, ops, {"meet": m, "join": j}) is not None
                for m, j in reps
            ):
                reps.append((meet, join))
        return LatticeCatalogue(n, tuple(sorted(reps)), True)
    labeled = set()
    for meet, join in natural:
        for perm in itertools.permutations(range(n)):
            labeled.add((_permute_table(meet, perm), _permute_table(join, perm)))
    return LatticeCatalogue(n, tuple(sorted(labeled)), False)


def _residuable_lines(n: int, leq: tuple[tuple[bool, ...], ...], join: Table):
    """The value rows permitted in a residuated mult table: those with a
    residual for every z.  Rows and columns of mult face the same
    condition, one for each residual.
    """
    return [
        line for line in itertools.product(range(n), repeat=n)
        if all(_residual(line, z, leq, join) is not None for z in range(n))
    ]


def enumerate_residuated_binars(
    n: int, *, sample: int | None = None, seed: int = 0
) -> Iterator[FiniteBinar]:
    """All residuated binars on {0..n-1}, or a random sample of draws.

    Exhaustive mode covers n <= 3.  With sample=k, k random (lattice, mult)
    draws are tested and the residuated ones emitted; that mode reaches n=4
    but proves nothing about exhaustion.
    """
    if n < 1:
        raise BoundExceeded("size must be positive")
    if sample is None:
        if n > EXHAUSTIVE_BOUND:
            raise BoundExceeded(
                f"exhaustive enumeration supports n <= {EXHAUSTIVE_BOUND}; "
                "pass sample= for larger sizes"
            )
        yield from _exhaustive(n)
        return
    if n > SAMPLED_BOUND:
        raise BoundExceeded(f"sampled enumeration supports n <= {SAMPLED_BOUND}")
    yield from _sampled(n, sample, seed)


def _exhaustive(n: int) -> Iterator[FiniteBinar]:
    for meet, join in enumerate_lattices(n).entries:
        order = order_from_tables(meet, join)
        leq = order.leq
        rows = _residuable_lines(n, leq, join)
        row_set = set(rows)
        for choice in itertools.product(rows, repeat=n):
            if any(
                tuple(choice[x][y] for x in range(n)) not in row_set
                for y in range(n)
            ):
                continue
            mult = tuple(choice)
            lres, rres = derive_residuals(order, mult)
            yield FiniteBinar(n, meet, join, mult, lres, rres)


def _sampled(n: int, sample: int, seed: int) -> Iterator[FiniteBinar]:
    # Uniform random tables essentially never satisfy residuation beyond
    # n=3, so draw rows from the residuable-line pool and keep the draws
    # whose columns are residuable too.  Duplicates are possible.
    rng = random.Random(seed)
    catalogue = enumerate_lattices(n).entries
    orders = [order_from_tables(m, j) for m, j in catalogue]
    lines = [
        _residuable_lines(n, order.leq, join)
        for order, (_, join) in zip(orders, catalogue)
    ]
    line_sets = [set(rows) for rows in lines]
    for _ in range(sample):
        k = rng.randrange(len(catalogue))
        meet, join = catalogue[k]
        mult = tuple(rng.choice(lines[k]) for _ in range(n))
        if any(
            tuple(mult[x][y] for x in range(n)) not in line_sets[k]
            for y in range(n)
        ):
            continue
        lres, rres = derive_residuals(orders[k], mult)
        yield FiniteBinar(n, meet, join, mult, lres, rres)


# --- task answering -----------------------------------------------------------

_IDENTITY_BIT = {name: i for i, name in enumerate(IDENTITY_NAMES)}

_pool_cache: dict[int, tuple[tuple[FiniteBinar, int], ...]] = {}


def _identity_name(ident: Identity | str) -> str:
    name = ident if isinstance(ident, str) else ident.name
    if name not in _IDENTITY_BIT:
        raise KeyError(f"not a distributivity identity: {name!r}")
    return name


def identity_profile(b: FiniteBinar) -> int:
    """Bitmask of which of D1..D6, LD hold, in IDENTITY_NAMES bit order."""
    mask = 0
    for name, bit in _IDENTITY_BIT.items():
        if check_identity(b, builtin(name)) is None:
            mask |= 1 << bit
    return mask


def _model_pool(n: int) -> tuple[tuple[FiniteBinar, int], ...]:
    if n > EXHAUSTIVE_BOUND:
        raise BoundExceeded(f"oracle answers require n <= {EXHAUSTIVE_BOUND}")
    if n not in _pool_cache:
        _pool_cache[n] = tuple(
            (b, identity_profile(b)) for b in enumerate_residuated_binars(n)
        )
    return _pool_cache[n]


def _constraint_masks(
    assume: Iterable[Identity | str], refute: Identity | str | None
) -> tuple[int, int]:
    need = 0
    for ident in assume:
        need |= 1 << _IDENTITY_BIT[_identity_name(ident)]
    avoid = 0
    if refute is not None:
        avoid = 1 << _IDENTITY_BIT[_identity_name(refute)]
    return need, avoid


def oracle_search(task: "SearchTask") -> FiniteBinar | None:
    """First enumerated model meeting the task, or None if none exists."""
    need, avoid = _constraint_masks(task.assume, task.refute)
    for binar, mask in _model_pool(task.size):
        if mask & need == need and not mask & avoid:
            return binar
    return None


def count_models(
    n: int,
    assume: Iterable[Identity | str] = (),
    refute: Identity | str | None = None,
) -> int:
    """Exact number of labeled models meeting the constraints."""
    need, avoid = _constraint_masks(assume, refute)
    return sum(
        1
        for _, mask in _model_pool(n)
        if mask & need == need and not mask & avoid
    )
