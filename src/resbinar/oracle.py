"""Exhaustive ground truth for small sizes, independent of the CNF encoding.

Lattices are enumerated as the partial orders refined by the numeric order
0 < 1 < ... < n-1, kept where `algebra.lattice_tables` finds every meet and
join, and sorted into classes by `algebra.canonical_form`, the first one met
standing for its class; the labeled catalogue is every relabeling of those
class representatives.  Each representative is naturally labelled: x <= y
only if x <= y as integers, so 0 is its bottom and n-1 its top.  A process
enumerates the representatives of a size once.  Residuated binars are
enumerated exhaustively, for n <= EXHAUSTIVE_BOUND, per lattice by choosing
mult tables; residuals are derived from mult and the order, never
enumerated, so a size-n search touches n^(n^2) tables per lattice instead
of n^(3n^2).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator

from .algebra import (
    FiniteBinar,
    Order,
    Table,
    _residual,
    canonical_form,
    check_identity,
    derive_residuals,
    lattice_tables,
    order_from_tables,
    relabel,
)
from .terms import IDENTITY_NAMES, Identity, builtin, identity_name

if TYPE_CHECKING:
    from .encoder import SearchTask

LATTICE_BOUND = 6
EXHAUSTIVE_BOUND = 3


class BoundExceeded(ValueError):
    pass


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


_representatives: dict[int, tuple[tuple[Table, Table], ...]] = {}


def enumerate_lattices(
    n: int, up_to_iso: bool = False
) -> tuple[tuple[Table, Table], ...]:
    """The sorted (meet, join) pairs of every lattice on {0..n-1}; labeled
    by default, one per isomorphism class if asked."""
    if not 1 <= n <= LATTICE_BOUND:
        raise BoundExceeded(f"lattice enumeration supports 1 <= n <= {LATTICE_BOUND}")
    if n not in _representatives:
        # the leq row of x is the bitmask of its up-set, x included
        rows = [tuple(bool(mask >> y & 1) for y in range(n)) for mask in range(1 << n)]
        classes: dict[tuple[Table, ...], tuple[Table, Table]] = {}
        for ups in _natural_orders(n):
            tables = lattice_tables(tuple(rows[ups[x] | 1 << x] for x in range(n)))
            if tables is not None:
                form, _ = canonical_form({"meet": tables[0], "join": tables[1]})
                classes.setdefault(form, tables)
        _representatives[n] = tuple(sorted(classes.values()))
    if up_to_iso:
        return _representatives[n]
    return tuple(sorted({
        (relabel(meet, perm), relabel(join, perm))
        for meet, join in _representatives[n]
        for perm in itertools.permutations(range(n))
    }))


def is_distributive(meet: Table, join: Table) -> bool:
    """Whether the lattice satisfies x ^ (y v z) = (x ^ y) v (x ^ z)."""
    n = len(meet)
    return all(meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
               for x, y, z in itertools.product(range(n), repeat=3))


def _residuable_lines(n: int, leq: Order, join: Table):
    """The value rows permitted in a residuated mult table: those with a
    residual for every z.  Rows and columns of mult face the same
    condition, one for each residual.
    """
    return [
        line for line in itertools.product(range(n), repeat=n)
        if all(_residual(line, z, leq, join) is not None for z in range(n))
    ]


def enumerate_residuated_binars(n: int) -> Iterator[FiniteBinar]:
    """All residuated binars on {0..n-1}, for 1 <= n <= EXHAUSTIVE_BOUND."""
    if not 1 <= n <= EXHAUSTIVE_BOUND:
        raise BoundExceeded(
            f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_BOUND}"
        )
    for meet, join in enumerate_lattices(n):
        leq = order_from_tables(meet, join)
        rows = _residuable_lines(n, leq, join)
        row_set = set(rows)
        for choice in itertools.product(rows, repeat=n):
            if any(
                tuple(choice[x][y] for x in range(n)) not in row_set
                for y in range(n)
            ):
                continue
            mult = tuple(choice)
            lres, rres = derive_residuals(leq, mult)
            yield FiniteBinar(n, meet, join, mult, lres, rres)


# --- task answering -----------------------------------------------------------

_IDENTITY_BIT = {name: i for i, name in enumerate(IDENTITY_NAMES)}

_pool_cache: dict[int, tuple[tuple[FiniteBinar, int], ...]] = {}


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
        need |= 1 << _IDENTITY_BIT[identity_name(ident)]
    avoid = 0
    if refute is not None:
        avoid = 1 << _IDENTITY_BIT[identity_name(refute)]
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
    pool = _model_pool(n)
    need, avoid = _constraint_masks(assume, refute)
    return sum(1 for _, mask in pool if mask & need == need and not mask & avoid)
