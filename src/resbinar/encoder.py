"""CNF compilation of model-search tasks over one-hot operation tables.

Every cell of every operation table gets n boolean variables, one per
candidate value, under an exactly-one constraint.  The order is not a
separate relation: leq(x,y) abbreviates the meet variable for meet[x][y]=x.

Under an assignment of carrier values to its variables, a term's value is
either a carrier constant (an int: the term is a variable) or a tuple of n
literals whose v-th asserts value v: a table cell's own variables when both
arguments are constants, otherwise the fresh variables of an auxiliary term
shared through VarMap.aux.  An auxiliary tuple is exact (one true literal)
because its defining clauses force the true value upward and an at-most-one
ring forbids extras.  The encoder relies on the catalogue never putting a
bare variable on an assumed identity's left side or on either side of a
refuted one, so those sides are always literal tuples.

Clauses are built as tuples, normal by construction, and appended to the
store in bulk.  add_clause's normalisation runs only where term values can
overlap: a _force_into call whose target equals an input or that reads an
op cell which is also an input (the lattice laws).  A cell forced into
itself adds no clause, and a refuted tuple whose two sides are the same
literals rules its selector out with a unit clause.

Without symmetry breaking, every relabeling pi of the carrier maps the
clause set onto itself: a cell (op, r, c, v) goes to (op, pi[r], pi[c],
pi[v]), an auxiliary term's literals to those of the relabeled term, and a
refutation selector to the relabeled tuple's.  Such an encoding exports two generators
of that group as variable permutations in CnfInstance.symmetries.

A process keeps what every task of a size shares (_Size): the base
clauses, a template of each assumed-identity and refutation block, and the
cell-and-base part of each lifted generator.  A block is encoded directly
the first time; if it created every non-base auxiliary term it used, it
becomes the size's template, and every later task replays it under its own
variable numbers instead of walking the terms again.  The CNF, VarMap.aux,
the selectors and the symmetries come out as a direct encoding's would.

Lattice mode (EncodeOptions.lattice) encodes a task with the meet and join
tables fixed to one lattice, folded in as constants while encoding: a
unit clause fixes every meet and join cell variable, so decode_model and
verify read the lattice as they read any model; there are no lattice-law
clauses; a residuation clause whose two order literals are now constants
is dropped when they agree and loses them when they differ; a meet or join
of two constants is a constant, and one with a literal-tuple argument
needs one clause per pair of argument values instead of n.  No carrier
symmetry is exported, since a relabeling moves the fixed lattice; symmetry
breaking is off too, as the tables already fix the labels.  A process keeps
a _Size per (size, lattice) as it does per size.

Lattice mode also folds by monotonicity.  In a residuated binar x*- is
left adjoint to x\\- and -*y to -/y, so mult is monotone in each argument,
x\\z antitone in x and monotone in z, and z/y monotone in z and antitone in
y (Galatos, Jipsen, Kowalski and Ono, Residuated Lattices, 2007).  With
the order fixed, a meet or join of two cells of one residuated operation
whose arguments those facts order (_below) is the lower cell, or the
upper one, on every model: it is encoded as that cell, with no auxiliary
term.  On a chain every two such cells are ordered, both sides of each
D1..D6 tuple fold to the same cell, each refuted tuple's selector gets a
unit clause, and a refutation is UNSAT by unit propagation alone.
Folding loses no model, since the cell equals the meet or join it
replaces on every model; every SAT answer is still verified.

Splitting a task over lattices loses no model when the lattices are one
naturally labelled representative of each isomorphism class, as
oracle.enumerate_lattices(n, up_to_iso=True) gives them: a model's lattice
is isomorphic to exactly one representative, the isomorphism relabels the
whole model onto that representative's tables, and a relabeling keeps
every identity that holds or fails.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .algebra import FiniteBinar, Table, freeze_table, lattice_tables, order_from_tables
from .terms import (
    Identity,
    LATTICE_IDENTITIES,
    OPS,
    Term,
    Variable,
    builtin,
    identity_name,
    identity_variables,
)

OP_INDEX = {op: i for i, op in enumerate(OPS)}
ENCODING_CEILING = 32


class SizeOverflow(ValueError):
    pass


class IllFormedAssignment(ValueError):
    """A cell decoded to zero or several values."""

    def __init__(self, cell: tuple):
        self.cell = cell
        super().__init__(f"cell {cell} has no unique value")


@dataclass(frozen=True)
class SearchTask:
    """Find a residuated binar of the given size satisfying every assumed
    identity and violating the refuted one (if any)."""

    size: int
    assume: frozenset[str] = frozenset()
    refute: str | None = None

    def __post_init__(self):
        if type(self.size) is not int or self.size < 1:
            raise ValueError(f"size must be a positive int: {self.size!r}")
        if self.size > ENCODING_CEILING:
            raise SizeOverflow(f"size {self.size} beyond ceiling {ENCODING_CEILING}")
        names = frozenset(identity_name(a) for a in self.assume)
        object.__setattr__(self, "assume", names)
        if self.refute is not None:
            refute = identity_name(self.refute)
            object.__setattr__(self, "refute", refute)
            if refute in names:
                raise ValueError(f"cannot both assume and refute {refute}")

    @classmethod
    def make(
        cls,
        size: int,
        assume: Iterable[Identity | str] = (),
        refute: Identity | str | None = None,
    ) -> "SearchTask":
        return cls(size, assume, refute)

    def key(self) -> tuple:
        return (self.size, tuple(sorted(self.assume)), self.refute or "")

    def describe(self) -> str:
        assume = ",".join(sorted(self.assume)) or "-"
        return f"n={self.size} assume={assume} refute={self.refute or '-'}"


@dataclass
class VarMap:
    """Base variable layout plus the literal tuples of auxiliary terms,
    keyed by (op, left value, right value)."""

    n: int
    aux: dict[tuple, tuple[int, ...]] = field(default_factory=dict)

    @property
    def num_base(self) -> int:
        return 5 * self.n ** 3

    def var(self, op: str, row: int, col: int, value: int) -> int:
        n = self.n
        if not (0 <= row < n and 0 <= col < n and 0 <= value < n):
            raise ValueError(f"cell index out of range: {(op, row, col, value)}")
        return 1 + OP_INDEX[op] * n ** 3 + row * n ** 2 + col * n + value

    def leq(self, x: int, y: int) -> int:
        """Literal for x <= y, an abbreviation of meet[x][y] = x."""
        return self.var("meet", x, y, x)

    def base_items(self) -> Iterator[tuple[tuple[str, int, int, int], int]]:
        n = self.n
        for op in OPS:
            for row in range(n):
                for col in range(n):
                    for value in range(n):
                        yield (op, row, col, value), self.var(op, row, col, value)


class CnfInstance:
    """Clause store: every literal in one flat array, and the end offset of
    each clause in a second, so a clause is one slice of the first.

    add_clause range-checks each literal, removes repeated ones and silently
    drops tautologies, so downstream watched-literal handling never sees a
    clause watching one variable twice.  The encoder appends the clauses it
    builds normal in bulk through _extend, unchecked, and sends only those
    whose term values overlap through add_clause.  An instance from
    encode_search starts as a copy of its size's base clauses, which
    _size_cache keeps for the life of the process (2.5 MiB of arrays at
    n = 7, 8.9 MiB at n = 9), and gets each block it shares with an earlier
    task of its size in the same process, a grid worker's included, as a
    renumbered copy of that block's template.

    symmetries holds variable permutations, each of length num_vars + 1
    with perm[0] = 0, that map the clause set onto itself (literal sets,
    with multiplicity; a literal's sign is kept).  The producer guarantees
    that invariant: encode_search exports the carrier relabelings'
    generators for an encoding without symmetry breaking, and tests pin
    them.  solve_builtin checks only each permutation's shape.
    """

    def __init__(self, num_vars: int = 0):
        self.num_vars = num_vars
        self.clause_count = 0
        self._lits = array("i")
        self._ends = array("i")
        self.varmap: VarMap | None = None
        self.symmetries: tuple[Sequence[int], ...] = ()

    @classmethod
    def from_clauses(cls, num_vars: int, clauses: Iterable[Iterable[int]]) -> "CnfInstance":
        cnf = cls(num_vars)
        for clause in clauses:
            cnf.add_clause(clause)
        return cnf

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add one clause; returns False when dropped as a tautology."""
        seen: set[int] = set()
        out = []
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 is reserved")
            if abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} beyond allocated variables")
            if -lit in seen:
                return False
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            raise ValueError("empty clause")
        self._lits.extend(out)
        self._ends.append(len(self._lits))
        self.clause_count += 1
        return True

    def iter_clauses(self) -> Iterator[tuple[int, ...]]:
        lits, start = self._lits, 0
        for end in self._ends:
            yield tuple(lits[start:end])
            start = end

    def clause_lists(self) -> list[list[int]]:
        """Every clause as a fresh list, in order, for a caller that reorders
        literals in place; one tolist() and one slice per clause."""
        lits, start, out = self._lits.tolist(), 0, []
        for end in self._ends:
            out.append(lits[start:end])
            start = end
        return out

    def _extend(self, clauses: list[tuple[int, ...]], normal: bool = True) -> None:
        """Append clauses in bulk, unchecked when the caller vouches that
        they are normal (literals in range, none repeated or complemented);
        otherwise each goes through add_clause."""
        if not normal:
            for clause in clauses:
                self.add_clause(clause)
            return
        ends = itertools.accumulate(map(len, clauses), initial=len(self._lits))
        next(ends)
        self._lits.extend(itertools.chain.from_iterable(clauses))
        self._ends.extend(ends)
        self.clause_count += len(clauses)


@dataclass(frozen=True)
class EncodeOptions:
    """symmetry: break the carrier symmetry with clauses, or else export
    its generators; lattice: the (meet, join) tables to fix, or None to
    search every lattice.  With a lattice, symmetry has no effect."""

    symmetry: bool = True
    lattice: tuple[Table, Table] | None = None

    def __post_init__(self):
        if self.lattice is not None:
            object.__setattr__(self, "lattice", tuple(map(freeze_table, self.lattice)))


class _Size:
    """What encode_search keeps per size n, or per size and fixed lattice,
    for the life of the process.

    - The base: the exactly-one, lattice-law and residuation clauses every
      task starts with, and their VarMap.aux; with a fixed lattice, the
      units that fix meet and join, the exactly-one clauses of the other
      cells and the folded residuation clauses.  A task copies them.
    - blocks: a _Block template per assumed identity and per refuted one,
      keyed ("assume" or "refute", name), replayed into every later task.
    - lifts: per carrier generator, the head of its lifted permutation:
      the images of the cells and of the base's auxiliary terms.

    Templates, once replayed, hold 0.45 MB at n = 3 and 1.9 MB at n = 4
    for all fourteen blocks, and 2.8 MB (assumed) to 3.1 MB (refuted) per
    block at n = 7, beside 2.5 MiB of base arrays there.  A grid worker
    answers task after task for the length of its grid, so its later tasks
    of a size replay what its first one recorded, and it keeps every size
    it has seen.
    """

    def __init__(self, n: int, lattice: tuple[Table, Table] | None = None):
        enc = _Encoder(SearchTask(n), EncodeOptions(lattice=lattice))
        if lattice is None:
            enc._exactly_one_cells()
            for ident in LATTICE_IDENTITIES:
                enc._assert_identity(ident)
            enc._residuation()
        else:
            enc._fixed_lattice()
        cnf = enc.cnf
        self.lits, self.ends = cnf._lits, cnf._ends
        self.num_vars, self.clause_count = cnf.num_vars, cnf.clause_count
        self.aux = enc.varmap.aux
        self.blocks: dict[tuple[str, str], _Block] = {}
        self.lifts: dict[tuple[int, ...], array] = {}


# keyed by n, and by (n, lattice) for a fixed lattice
_SIZES: dict[int | tuple, _Size] = {}


def _size_cache(n: int, lattice: tuple[Table, Table] | None = None) -> _Size:
    """The per-size (or per size and lattice) cache, its base encoded on
    first use; callers copy what they take from it, never alias it."""
    key = n if lattice is None else (n, lattice)
    if key not in _SIZES:
        _SIZES[key] = _Size(n, lattice)
    return _SIZES[key]


class _Block:
    """Template of one assumed-identity or refutation block, recorded from
    a direct encoding that created every non-base auxiliary term it used.
    Its literals are therefore base variables, which keep their numbers in
    every task, and the variables it allocated after `first`.

    allocs lists those allocations in order: (key, lo, hi) for a new
    auxiliary term, whose definition is the recording store's clauses
    lo..hi-1, and (tuple, None, None) for the selector of a refuted tuple.
    The block's clauses, the recording store's from clause0 on, are copied
    out when it is recorded."""

    def __init__(self, cnf: CnfInstance, base_vars: int, first: int,
                 lit0: int, clause0: int, allocs: list[tuple]):
        self.base_vars, self.first, self.allocs = base_vars, first, allocs
        self.lit0, self.clause0 = lit0, clause0
        self.lits = cnf._lits[lit0:]
        # offsets[i] is where clause i started in the recording store, so
        # at self.lits[offsets[i] - lit0]; one past the last ends it
        self.offsets = array("i", [lit0]) + cnf._ends[clause0:]

    def replay(self, enc: "_Encoder") -> None:
        """Append the block to enc's task under the task's next variables.

        A term the task already has (one a block before shared) keeps its
        variables, and its definition clauses are cut out as one slice."""
        cnf, aux, n = enc.cnf, enc.varmap.aux, enc.n
        nv = cnf.num_vars
        # fwd[v] is the task's variable for the template's variable v
        fwd = list(range(self.base_vars + 1))
        fwd += [0] * (self.first - self.base_vars)
        cuts = []
        for key, lo, hi in self.allocs:
            if lo is None:
                nv += 1
                fwd.append(nv)
                enc.selectors[key] = nv
                continue
            op, left, right = key
            key = (op,
                   left if type(left) is int else tuple(map(fwd.__getitem__, left)),
                   right if type(right) is int else tuple(map(fwd.__getitem__, right)))
            lits = aux.get(key)
            if lits is None:
                lits = aux[key] = tuple(range(nv + 1, nv + n + 1))
                nv += n
            else:
                cuts.append((lo - self.clause0, hi - self.clause0))
            fwd.extend(lits)
        cnf.num_vars = nv
        table = fwd + [-v for v in fwd[:0:-1]]  # table[-v] == -fwd[v]
        offsets, lit0, at = self.offsets, self.lit0, 0
        cuts.append((len(offsets) - 1,) * 2)
        for lo, hi in cuts:
            if lo > at:
                shift = len(cnf._lits) - offsets[at]
                cnf._lits.extend(map(table.__getitem__,
                                     self.lits[offsets[at] - lit0:offsets[lo] - lit0]))
                cnf._ends.extend(map(shift.__add__, offsets[at + 1:lo + 1]))
                cnf.clause_count += lo - at
            at = hi


class _Encoder:
    def __init__(self, task: SearchTask, opts: EncodeOptions):
        self.task = task
        self.opts = opts
        self.n = task.size
        self.varmap = VarMap(self.n)
        self.cnf = CnfInstance(num_vars=self.varmap.num_base)
        self.cnf.varmap = self.varmap
        # the fixed meet and join tables by op; empty when every lattice is searched
        self.fixed: dict[str, Table] = dict(zip(("meet", "join"), opts.lattice or ()))
        self.selectors: dict[tuple[int, ...], int] = {}  # refuted tuple -> selector
        # the block being encoded: its allocations, and the variables of
        # earlier blocks, a term among which keeps it from being a template
        self._allocs: list[tuple] = []
        self._earlier = (0, 0)
        self._reused = False

    def build(self) -> CnfInstance:
        size = self._size = _size_cache(self.n, self.opts.lattice)
        cnf = self.cnf
        cnf._lits, cnf._ends = size.lits[:], size.ends[:]
        cnf.num_vars, cnf.clause_count = size.num_vars, size.clause_count
        self.varmap.aux = dict(size.aux)
        for name in sorted(self.task.assume):
            self._block("assume", name)
        if self.task.refute is not None:
            self._block("refute", self.task.refute)
        if self.fixed:
            return cnf
        if self.opts.symmetry:
            cnf._extend(symmetry_clauses(self.n, self.varmap.leq))
        else:
            cnf.symmetries = tuple(map(self._lift, carrier_generators(self.n)))
        return cnf

    def _block(self, kind: str, name: str) -> None:
        """Replay the size's template of the block, or encode it directly
        and keep it as the template if it used no earlier block's term."""
        size, cnf = self._size, self.cnf
        template = size.blocks.get((kind, name))
        if template is not None:
            template.replay(self)
            return
        first, lit0, clause0 = cnf.num_vars, len(cnf._lits), len(cnf._ends)
        self._allocs, self._earlier, self._reused = [], (size.num_vars, first), False
        if kind == "assume":
            self._assert_identity(builtin(name))
        else:
            self._refute(builtin(name))
        if not self._reused:
            size.blocks[kind, name] = _Block(cnf, size.num_vars, first, lit0, clause0,
                                             self._allocs)

    def _lift(self, pi: list[int]) -> array:
        """The variable permutation a relabeling pi of the carrier induces.

        A literal tuple of a term goes to that of the relabeled term, with
        the literal for value v moving to the one for pi[v].  Cells come
        first; auxiliary terms follow in insertion order, which puts each
        term's arguments before it.  The images of the cells and the base's
        terms are the same for every task of a size and kept per size."""
        n, vm, size = self.n, self.varmap, self._size
        base_terms = len(size.aux)
        head = size.lifts.get(tuple(pi))
        if head is None:
            head = array("i", range(size.num_vars + 1))
            for op in OPS:
                for row in range(n):
                    for col in range(n):
                        src = vm.var(op, row, col, 0)
                        dst = vm.var(op, pi[row], pi[col], 0)
                        for v in range(n):
                            head[src + v] = dst + pi[v]
            self._lift_terms(pi, head, itertools.islice(vm.aux.items(), base_terms))
            size.lifts[tuple(pi)] = head
        perm = head + array("i", range(len(head), self.cnf.num_vars + 1))
        self._lift_terms(pi, perm, itertools.islice(vm.aux.items(), base_terms, None))
        for tup, w in self.selectors.items():
            image = tuple(pi[a] for a in tup)
            if image not in self.selectors:
                raise ValueError(f"encoding not invariant under relabeling {pi}: "
                                 f"no selector for the refuted tuple {image}")
            perm[w] = self.selectors[image]
        return perm

    def _lift_terms(self, pi: list[int], perm: array, items) -> None:
        """Fill perm for each (key, literals) of items, whose arguments'
        literals perm already maps.  The relabeled term's literal for
        value w is the image of the literal for pinv[w]."""
        aux = self.varmap.aux
        pinv = sorted(range(self.n), key=pi.__getitem__)

        def move(value):
            return pi[value] if type(value) is int else tuple([perm[value[j]] for j in pinv])

        for (op, left, right), lits in items:
            key = (op, move(left), move(right))
            target = aux.get(key)
            if target is None:
                raise ValueError(f"encoding not invariant under relabeling {pi}: "
                                 f"no auxiliary term {key}")
            for v, lit in enumerate(lits):
                perm[lit] = target[pi[v]]

    # -- building blocks

    def _exactly_one_cells(self) -> None:
        """One value per cell of each op that is not fixed."""
        n, vm = self.n, self.varmap
        for op in OPS:
            if op in self.fixed:
                continue
            for row in range(n):
                for col in range(n):
                    first = vm.var(op, row, col, 0)
                    cell = tuple(range(first, first + n))
                    self.cnf._extend([cell])
                    self._at_most_one(cell)

    def _at_most_one(self, lits) -> None:
        self.cnf._extend([(-a, -b) for a, b in itertools.combinations(lits, 2)])

    def _flatten(self, t: Term, env: Mapping[str, int]):
        """Value of a term: an int, or a tuple of literals, one per value.
        In lattice mode a meet or join of two cells that _below orders is
        the lower or the upper cell itself."""
        if isinstance(t, Variable):
            return env[t.name]
        left = self._flatten(t.left, env)
        right = self._flatten(t.right, env)
        if isinstance(left, int) and isinstance(right, int):
            if t.op in self.fixed:
                return self.fixed[t.op][left][right]
            first = self.varmap.var(t.op, left, right, 0)
            return tuple(range(first, first + self.n))
        if t.op in self.fixed:
            if self._below(left, right):
                return left if t.op == "meet" else right
            if self._below(right, left):
                return right if t.op == "meet" else left
        key = (t.op, left, right)
        lits = self.varmap.aux.get(key)
        if lits is None:
            lo = len(self.cnf._ends)
            lits = tuple(self.cnf.new_var() for _ in range(self.n))
            self.varmap.aux[key] = lits
            self._force_into(t.op, left, right, lits)
            self._at_most_one(lits)
            self._allocs.append((key, lo, len(self.cnf._ends)))
        elif self._earlier[0] < lits[0] <= self._earlier[1]:
            self._reused = True
        return lits

    def _choices(self, value) -> list[tuple[int, tuple[int, ...]]]:
        """(a, clause prefix false exactly when the value is a) for each a."""
        if isinstance(value, int):
            return [(value, ())]
        return [(a, (-lit,)) for a, lit in enumerate(value)]

    def _force_into(self, op: str, left, right, target) -> None:
        """Clauses: left=a and right=b and op[a][b]=v imply target=v, where
        target is an int or a tuple of literals.

        A literal tuple is n consecutive variables, so two tuples are equal
        or disjoint.  When left == right, the prefix of a pair a == b keeps
        one copy of its literal, as add_clause would.  Any other repeated or
        complementary literal needs a target equal to an input, or a tuple
        that is one of the op cells the call reads (as in the lattice laws):
        only such calls go through add_clause."""
        if op in self.fixed:
            self._force_fixed(self.fixed[op], left, right, target)
            return
        n = self.n
        first = self.varmap.var(op, 0, 0, 0)
        if (isinstance(left, int) and isinstance(right, int) and isinstance(target, tuple)
                and target[0] == first + (left * n + right) * n):
            return  # the cell forced into itself: every clause a tautology
        same = left == right
        rights = self._choices(right)
        pairs = [(first + (a * n + b) * n, pa if same and a == b else pa + pb)
                 for a, pa in self._choices(left) for b, pb in rights]
        if isinstance(target, int):
            clauses = [prefix + (cell + target,) for cell, prefix in pairs]
        else:
            clauses = [prefix + (-v, t) for cell, prefix in pairs
                       for v, t in zip(range(cell, cell + n), target)]
        heads = {t[0] for t in (left, right, target) if isinstance(t, tuple)}
        normal = not (isinstance(target, tuple) and target in (left, right)
                      or any(cell in heads for cell, _ in pairs))
        self.cnf._extend(clauses, normal)

    def _force_fixed(self, table: Table, left, right, target) -> None:
        """_force_into for a fixed op: left=a and right=b imply
        target=table[a][b], one clause per pair (a, b), none where an int
        target already equals it.  A pair of constants that contradicts an
        int target leaves no literal: its clause is the negation of a true
        unit, which makes the CNF unsatisfiable as it should be."""
        same = left == right
        rights = self._choices(right)
        pairs = [(table[a][b], pa if same and a == b else pa + pb)
                 for a, pa in self._choices(left) for b, pb in rights]
        if isinstance(target, int):
            clauses = [prefix or (-self._true_unit(),) for v, prefix in pairs if v != target]
        else:
            clauses = [prefix + (target[v],) for v, prefix in pairs]
        self.cnf._extend(clauses, not (isinstance(target, tuple) and target in (left, right)))

    def _below(self, low, high) -> bool:
        """Whether low <= high in every residuated binar on the fixed
        lattice, by monotonicity: both are cells of one residuated op, and
        mult[a][b] is monotone in a and in b, x\\z (lres row x, column z)
        antitone in x and monotone in z, z/y (rres row z, column y)
        monotone in z and antitone in y.  False for a constant or an
        auxiliary term.  Only lattice mode calls it, where no meet or join
        cell is a literal tuple."""
        n, meet = self.n, self.fixed["meet"]
        cells = []
        for value in (low, high):
            if isinstance(value, int) or value[0] > self.varmap.num_base:
                return False
            op, cell = divmod((value[0] - 1) // n, n * n)
            cells.append((OPS[op], *divmod(cell, n)))
        (op, r1, c1), (other, r2, c2) = cells
        if op != other:
            return False
        if op == "lres":
            r1, r2 = r2, r1
        elif op == "rres":
            c1, c2 = c2, c1
        return meet[r1][r2] == r1 and meet[c1][c2] == c1

    def _true_unit(self) -> int:
        """A cell variable the fixed lattice's units make true."""
        return self.varmap.var("meet", 0, 0, self.fixed["meet"][0][0])

    def _assert_identity(self, ident: Identity) -> None:
        """Force lhs = rhs on every tuple of carrier values."""
        lhs = ident.lhs
        names = identity_variables(ident)
        for tup in itertools.product(range(self.n), repeat=len(names)):
            env = dict(zip(names, tup))
            rhs = self._flatten(ident.rhs, env)
            self._force_into(lhs.op, self._flatten(lhs.left, env),
                             self._flatten(lhs.right, env), rhs)

    def _residuation(self) -> None:
        """x*y <= z iff y <= x\\z iff x <= z/y, expanded per cell values;
        the pair of clauses whose two order literals coincide (a tautology)
        is left out."""
        n, vm, clauses = self.n, self.varmap, []
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    for a in range(n):
                        ma = -vm.var("mult", x, y, a)
                        la = vm.leq(a, z)
                        for b in range(n):
                            rb = -vm.var("lres", x, z, b)
                            lb = vm.leq(y, b)
                            if lb != la:
                                clauses += ((ma, rb, -la, lb), (ma, rb, la, -lb))
                        for c in range(n):
                            rc = -vm.var("rres", z, y, c)
                            lc = vm.leq(x, c)
                            if lc != la:
                                clauses += ((ma, rc, -la, lc), (ma, rc, la, -lc))
        self.cnf._extend(clauses)

    def _fixed_lattice(self) -> None:
        """The base of lattice mode: a unit per meet and join cell
        variable, true for the table's value, the exactly-one clauses of
        the mult and residual cells, and residuation under the fixed order:
        of the two clauses per cell values, both hold where the order's
        two constants agree, and where they differ both become one binary
        clause, kept once.  A ValueError for tables that are not those of a
        lattice on {0..n-1}."""
        n, vm, lattice = self.n, self.varmap, self.opts.lattice
        if any(len(table) != n or any(len(row) != n for row in table) for table in lattice):
            raise ValueError(f"lattice tables are not {n} x {n}")
        leq = order_from_tables(*lattice)
        if lattice_tables(leq) != lattice:
            raise ValueError("meet and join are not the lattice operations of their order")
        units = []
        for op, table in self.fixed.items():
            for row in range(n):
                for col in range(n):
                    first = vm.var(op, row, col, 0)
                    units += [(first + v if v == table[row][col] else -first - v,)
                              for v in range(n)]
        self.cnf._extend(units)
        self._exactly_one_cells()
        clauses = []
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    for a in range(n):
                        ma = -vm.var("mult", x, y, a)
                        la = leq[a][z]
                        clauses += [(ma, -vm.var("lres", x, z, b))
                                    for b in range(n) if leq[y][b] != la]
                        clauses += [(ma, -vm.var("rres", z, y, c))
                                    for c in range(n) if leq[x][c] != la]
        self.cnf._extend(clauses)

    def _refute(self, ident: Identity) -> None:
        """Some tuple must witness lhs != rhs: one selector per tuple.  In
        lattice mode both sides of LD are constants, and both sides of a
        D1..D6 tuple can fold to one cell: a tuple whose sides are equal
        rules its selector out, one with two different constants needs no
        clause."""
        names = identity_variables(ident)
        for tup in itertools.product(range(self.n), repeat=len(names)):
            env = dict(zip(names, tup))
            w = self.selectors[tup] = self.cnf.new_var()
            self._allocs.append((tup, None, None))
            lhs = self._flatten(ident.lhs, env)
            rhs = self._flatten(ident.rhs, env)
            if lhs == rhs:
                self.cnf._extend([(-w,)])
            elif not isinstance(lhs, int):
                self.cnf._extend([(-w, -l, -r) for l, r in zip(lhs, rhs)])
        self.cnf._extend([tuple(self.selectors.values())])


def carrier_generators(n: int) -> list[list[int]]:
    """The transposition (0 1) and the cycle (0 1 ... n-1) as lists of
    images; they generate every relabeling of an n-element carrier.  At
    n = 2 they coincide and one is returned; at n = 1 there is none."""
    if n < 2:
        return []
    swap = [1, 0, *range(2, n)]
    cycle = [*range(1, n), 0]
    return [swap] if n == 2 else [swap, cycle]


def symmetry_clauses(
    n: int, leq: Callable[[int, int], int]
) -> list[tuple[int, ...]]:
    """Pin 0 as bottom and n-1 as top, and force the numeric labeling to be
    a linear extension of the order."""
    clauses: list[tuple[int, ...]] = []
    for y in range(1, n):
        clauses.append((leq(0, y),))
    for x in range(1, n - 1):
        clauses.append((leq(x, n - 1),))
    for x in range(n):
        for y in range(x):
            clauses.append((-leq(x, y),))
    return clauses


def encode_search(task: SearchTask, opts: EncodeOptions = EncodeOptions()) -> CnfInstance:
    return _Encoder(task, opts).build()


def decode_model(assignment: Sequence[bool], varmap: VarMap, n: int) -> FiniteBinar:
    """Read the unique true value of each cell into operation tables;
    assignment[var - 1] is the value of variable var."""
    tables = {}
    for op in OPS:
        rows = []
        for row in range(n):
            out = []
            for col in range(n):
                values = [v for v in range(n)
                          if assignment[varmap.var(op, row, col, v) - 1]]
                if len(values) != 1:
                    raise IllFormedAssignment((op, row, col))
                out.append(values[0])
            rows.append(out)
        tables[op] = freeze_table(rows)
    return FiniteBinar(n, **tables)


def write_dimacs_file(cnf: CnfInstance, path) -> None:
    """Stream the instance to a file as DIMACS text, without building one
    giant buffer; varmap base cells are recorded as `c map` comments."""
    with open(path, "w", encoding="ascii") as handle:
        if cnf.varmap is not None:
            for (op, row, col, value), var in cnf.varmap.base_items():
                handle.write(f"c map {op} {row} {col} {value} {var}\n")
        handle.write(f"p cnf {cnf.num_vars} {cnf.clause_count}\n")
        # each literal's text is made once: words[lit] for either sign
        words = [str(v) for v in range(cnf.num_vars + 1)]
        words += [str(v) for v in range(-cnf.num_vars, 0)]
        lits, ends, start = cnf._lits, cnf._ends, 0
        for i in range(0, len(ends), 4096):
            block = [end - start for end in ends[i:i + 4096]]  # offsets from start
            text = list(map(words.__getitem__, lits[start:start + block[-1]]))
            at, lines = 0, []
            for end in block:
                lines.append(" ".join(text[at:end]) + " 0\n")
                at = end
            handle.write("".join(lines))
            start += block[-1]
