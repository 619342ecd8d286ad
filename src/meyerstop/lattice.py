"""Finite filtered lattice with a Meyer-style information structure.

Time is a finite chain of instants.  Each epoch k in {0..K} contributes a
grid instant (k, AT) and an interval instant (k, INT) standing for the whole
open interval after the grid point; TERMINAL sits after everything and plays
the role of infinity.  Left and right limits of ladlag processes are then
attained at neighbouring instants, and stopping "just before" or "just
after" a grid point is representable exactly.

Inside the engine an instant is its index on the chain, 2k for (k, AT) and
2k + 1 for (k, INT), and `n_instants` stands for TERMINAL; a stopping time
(`RandomInstant`) is one such index per path, and a process
(`LatticeProcess`) is one column per index, TERMINAL included.  `Instant`
and `TERMINAL` are the forms in which times are constructed and rendered.

Information is one partition of the path set per instant:

    instant    LAMBDA   OPTIONAL   PREDICTABLE
    (k, AT)    G_k      F_k        F_{k-1}   (F_{0-} at k = 0)
    (k, INT)   F_k      F_k        F_k

where F is the filtration and G is the Meyer structure squeezed between
F_{k-1} and F_k.  All values are exact rationals; there is no floating
point anywhere in this module, and `_scaled` rejects a float.  Averages run
on integers: the lattice keeps its path probabilities as integer weights
over one common mass, every P-weighted table of the engine is built here
(`_weighted`) as integers over one denominator, and each atom's average is
one integer sum and one `Fraction`.

The fields of one kind refine each other along the chain, so their atoms
form one tree (`_atom_tree`), kept on the lattice.  The engine conditions
only on it: `_conditioned` sums a process per node in integers, and the
projections, the Snell envelope and the loss table read those sums.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property, total_ordering
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Sequence

AT = "AT"
INT = "INT"


class Kind(Enum):
    """Which information structure governs a measurability question."""

    LAMBDA = "lambda"
    OPTIONAL = "optional"
    PREDICTABLE = "predictable"


class LatticeError(ValueError):
    """An operation was applied to structurally unusable input."""


class InvariantError(RuntimeError):
    """A result broke an identity that holds by construction: a defect."""


@total_ordering
class _TimeOrder:
    """The total order of the time chain on `_key()`: instants by index,
    then TERMINAL."""

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _TimeOrder):
            return self._key() < other._key()
        return NotImplemented


class _Record:
    """A frozen record for the few classes that validate or cache, which a
    `NamedTuple` cannot express.  `__init__` hands its parameters, the
    fields, in order to `_store`, which sets them past `__setattr__`.  As
    under a frozen dataclass, a record equals only a record of its exact
    class with equal fields, hashes as their tuple, reads back as
    `Name(field=...)` and refuses assignment; `_fields` and `_replace` are
    as on a `NamedTuple`.  Fields named in the class keyword `hidden` stay
    out of ==, hash and repr.  There are no `__slots__`, so copies and
    pickles restore the instance attributes as for any object.
    """

    def __init_subclass__(cls, hidden: tuple[str, ...] = ()) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._shown = tuple(f for f in cls._fields if f not in hidden)
        # the tuple of the shown values: every record shows two or more
        cls._row = property(attrgetter(*cls._shown))

    def _store(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._row == other._row
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._row)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {type(value).__name__} to frozen field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete frozen field {name!r}")

    def _replace(self, **changes):
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)


class Instant(_Record, _TimeOrder):
    """A point of the time chain: grid point (epoch, AT) or interval (epoch, INT);
    a `_Record`, as it validates and is ordered with TERMINAL by index."""

    def __init__(self, epoch: int, tag: str) -> None:
        self._store(epoch, tag)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.tag not in (AT, INT):
            raise LatticeError(f"instant tag must be AT or INT, got {self.tag!r}")
        if self.epoch < 0:
            raise LatticeError(f"instant epoch must be >= 0, got {self.epoch}")

    @property
    def index(self) -> int:
        """Position in the total instant order, 2*epoch for AT, +1 for INT."""
        return 2 * self.epoch + (0 if self.tag == AT else 1)

    def _key(self) -> tuple[int, int]:
        return (0, self.index)

    def __repr__(self) -> str:
        return f"({self.epoch},{self.tag})"


class _Terminal(_TimeOrder):
    """The distinguished instant after every epoch (the time-infinity slot)."""

    _instance: "_Terminal | None" = None

    def __new__(cls) -> "_Terminal":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def _key(self) -> tuple[int, int]:
        return (1, 0)

    def __repr__(self) -> str:
        return "TERMINAL"


TERMINAL = _Terminal()

TimePoint = Instant | _Terminal

# Partitions are canonically ordered tuples of frozensets of path indices.
Partition = tuple[frozenset[int], ...]


def make_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    """Canonicalize a collection of blocks (sorted by smallest member)."""
    frozen = [frozenset(b) for b in blocks]
    return tuple(sorted(frozen, key=lambda b: min(b) if b else -1))


def is_union_of_atoms(subset: frozenset[int], partition: Partition) -> bool:
    rest = set(subset)
    for block in partition:
        if block <= subset:
            rest -= block
        elif block & subset:
            return False
    return not rest


class PathRecord(NamedTuple):
    id: str
    probability: Fraction


class FilteredLattice(_Record):
    """Finite path space with epoch-indexed partitions of the path set.

    `epoch_count` is the last epoch index K; `filtration` holds F_0..F_K;
    `initial_field` is F_{0-} and defaults to the trivial partition.  A
    `_Record`, as it caches `weights`.
    """

    def __init__(
        self,
        epoch_count: int,
        paths: tuple[PathRecord, ...],
        filtration: tuple[Partition, ...],
        initial_field: Partition | None = None,
    ) -> None:
        self._store(epoch_count, paths, filtration, initial_field)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def n_instants(self) -> int:
        return 2 * (self.epoch_count + 1)

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple(p.probability for p in self.paths)

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], int]:
        """The path probabilities as integer weights over one common mass,
        and that mass, built once per lattice."""
        (weights,), mass = _scaled([self.probabilities])
        return tuple(weights), mass

    @cached_property
    def _trees(self) -> dict:
        """The atom trees of this lattice (`_atom_tree`), keyed (meyer, kind),
        beside its structural reports (`validate_lattice`), keyed meyer."""
        return {}

    @property
    def path_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.paths)

    def initial_partition(self) -> Partition:
        if self.initial_field is not None:
            return self.initial_field
        return make_partition([range(self.n_paths)])

    @staticmethod
    def instant_at(index: int) -> Instant:
        """The `Instant` at chain index `index`: 2k is (k, AT), 2k + 1 is (k, INT)."""
        return Instant(index // 2, AT if index % 2 == 0 else INT)


class MeyerStructure(NamedTuple):
    """Per-epoch partitions G_k with F_{k-1} coarser than G_k coarser than F_k."""

    meyer_fields: tuple[Partition, ...]


class ValidationReport(NamedTuple):
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_lattice(lattice: FilteredLattice, meyer: MeyerStructure) -> ValidationReport:
    """Check every structural invariant; each violation becomes one message.
    The report is made once per (lattice, meyer) and kept on the lattice."""
    if (report := lattice._trees.get(meyer)) is None:
        problems = tuple(_structure_problems(lattice, meyer))
        report = lattice._trees[meyer] = ValidationReport(not problems, problems)
    return report


def _structure_problems(lattice: FilteredLattice, meyer: MeyerStructure) -> list[str]:
    """`validate_lattice`'s messages, computed: each field must be a
    partition (`_owners` names why not) that refines the one before it."""
    problems: list[str] = []
    n, K = lattice.n_paths, lattice.epoch_count
    if K < 1:
        problems.append(f"epoch_count must be positive, got {K}")
    ids = [p.id for p in lattice.paths]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        problems.append(f"duplicate path ids: {dupes}")
    for rec in lattice.paths:
        if rec.probability <= 0:
            problems.append(f"path {rec.id!r} has non-positive probability {rec.probability}")
    total = sum((p.probability for p in lattice.paths), Fraction(0))
    if total != 1:
        problems.append(f"probabilities sum to {total}")

    for what, fields in ("filtration", lattice.filtration), ("meyer structure", meyer.meyer_fields):
        if len(fields) != K + 1:
            problems.append(f"{what} must have {K + 1} partitions, got {len(fields)}")
    named = [
        *((f"F_{k}", part) for k, part in enumerate(lattice.filtration)),
        ("F_0-", lattice.initial_partition()),
        *((f"G_{k}", part) for k, part in enumerate(meyer.meyer_fields)),
    ]
    field = dict(named)
    for name, part in named:
        try:
            _owners(part, n)
        except LatticeError as exc:
            problems.append(f"{name} is not a partition of the path set: {exc}")

    def check_refines(finer: str, coarser: str) -> None:
        # both are partitions: an atom of `finer` lies in one of `coarser` or meets two
        owner = {p: k for k, block in enumerate(field[coarser]) for p in block}
        if bad := [sorted(block) for block in field[finer] if len({owner[p] for p in block}) > 1]:
            problems.append(f"{finer} does not refine {coarser} (offending atoms {bad})")

    if not problems:
        below = ["F_0-", *(f"F_{k}" for k in range(K))]
        for k in range(K + 1):
            check_refines(f"F_{k}", below[k])
        for k in range(K + 1):
            check_refines(f"G_{k}", below[k])
            check_refines(f"F_{k}", f"G_{k}")
    return problems


def sigma_field_at(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    u: TimePoint,
    kind: Kind,
) -> Partition:
    """The information partition governing instant `u` under `kind`."""
    if u is TERMINAL:
        raise LatticeError("sigma_field_at is undefined at TERMINAL")
    if u.epoch > lattice.epoch_count:
        raise LatticeError(f"instant {u} beyond epoch_count {lattice.epoch_count}")
    if u.tag == INT:
        return lattice.filtration[u.epoch]
    return _grid_field(lattice, meyer, kind, u.epoch)


def field_partitions(
    lattice: FilteredLattice, meyer: MeyerStructure, kind: Kind
) -> list[Partition]:
    """Partition per instant index, in instant order, by the module table."""
    fields = []
    for k in range(lattice.epoch_count + 1):
        fields += [_grid_field(lattice, meyer, kind, k), lattice.filtration[k]]
    return fields


def _grid_field(lattice: FilteredLattice, meyer: MeyerStructure, kind: Kind, k: int) -> Partition:
    """The partition governing the grid point (k, AT); intervals read F_k."""
    if kind is Kind.LAMBDA:
        return meyer.meyer_fields[k]
    if kind is Kind.OPTIONAL:
        return lattice.filtration[k]
    return lattice.filtration[k - 1] if k else lattice.initial_partition()


def _owners(partition: Partition, n: int) -> dict[int, int]:
    """Per path, the index of its block in `partition`.  An empty block, a
    path index out of range, a path in two blocks or an uncovered path
    raises LatticeError, the first one met block by block."""
    owner: dict[int, int] = {}
    for k, block in enumerate(partition):
        if not block:
            raise LatticeError("partition has an empty block")
        for i in block:
            if not 0 <= i < n:
                raise LatticeError(f"path {i} is not one of the lattice's {n} paths")
            if i in owner:
                raise LatticeError(f"path {i} lies in two blocks of the partition")
            owner[i] = k
    if len(owner) != n:
        raise LatticeError("partition does not cover the path set")
    return owner


def conditional_expectation(
    lattice: FilteredLattice,
    rv: Sequence[Fraction],
    partition: Partition,
) -> tuple[Fraction, ...]:
    """Probability-weighted average per atom, exact and constant on atoms.

    The path weights are integers over the lattice's one mass and `rv` is
    scaled to integers over one denominator, so each atom's average is one
    integer sum and one `Fraction`.  Any partition is read, and checked by
    `_owners`; the engine's own fields are read through `_conditioned`.
    """
    n = lattice.n_paths
    if len(rv) != n:
        raise LatticeError("random variable length does not match path count")
    weights, _ = lattice.weights
    (nums,), den = _scaled([rv])
    owner = _owners(partition, n)
    avg = [
        Fraction(sum(weights[i] * nums[i] for i in block), sum(weights[i] for i in block) * den)
        for block in partition
    ]
    return tuple(avg[owner[p]] for p in range(n))


def expected_value(lattice: FilteredLattice, rv: Sequence[Fraction]) -> Fraction:
    """E[rv]: the sum of rv's `_weighted` cells, as one `Fraction`."""
    (cells,), den = _weighted(lattice, [rv])
    return Fraction(sum(cells), den)


def _weighted(lattice: FilteredLattice, rows) -> tuple[list[list[int]], int]:
    """The cells P(p)·rows[i][p] as integers over one denominator, and that
    denominator: the `_scaled` rows times the lattice's integer weights."""
    weights, mass = lattice.weights
    scaled, den = _scaled(rows)
    return [[w * v for w, v in zip(weights, row)] for row in scaled], mass * den


def _scaled(rows) -> tuple[list[list[int]], int]:
    """Rational rows as integer rows over their least common denominator,
    and that denominator; a cell that is not an exact rational (a float)
    raises LatticeError."""
    try:
        den = math.lcm(*{v.denominator for row in rows for v in row})
    except AttributeError:
        bad = next(v for row in rows for v in row if not hasattr(v, "denominator"))
        raise LatticeError(f"{bad} is not an exact rational") from None
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _mask(paths) -> int:
    return sum(1 << p for p in paths)


class _AtomTree:
    """The atoms of one kind's fields as one tree: a node is an atom of
    instant i's field, its children the atoms of instant i + 1 inside it
    (one TERMINAL child after the last interval, so the TERMINAL nodes are
    the atoms of F_K), numbered parent before child, instant by instant, in
    parallel lists of instants, paths, path masks and child nodes.  Built
    only on a lattice that `validate_lattice` passes, whose fields are
    partitions that refine each other.  `mass` (per node), `unit` (their
    lcm) and `cofactor` (unit over mass) wait for `_conditioned`."""

    def __init__(self, lattice: FilteredLattice, meyer: MeyerStructure, kind: Kind) -> None:
        self.n_paths, self.n_inst = n, last = lattice.n_paths, lattice.n_instants
        fields = field_partitions(lattice, meyer, kind)
        owners = [*({p: k for k, b in enumerate(part) for p in b} for part in fields), [0] * n]
        self.inst, self.paths, self.mask, kids = [], [], [], []
        parents = [(0, range(n))]  # a virtual root, then each node
        for i, paths in parents:  # number the atoms of instant i inside `paths`
            shares: dict[int, list[int]] = {}
            for p in (paths if i <= last else ()):
                shares.setdefault(owners[i][p], []).append(p)
            kids.append(tuple(range(len(self.inst), len(self.inst) + len(shares))))
            for share in shares.values():
                self.inst.append(i)
                self.paths.append(tuple(share))
                self.mask.append(_mask(share))
                parents.append((i + 1, share))
        self.roots, *self.kids = kids
        self.zero = [[0] * n] * (last + 1)
        self.mass = self.cofactor = self.unit = None


def _atom_tree(lattice: FilteredLattice, meyer: MeyerStructure, kind: Kind) -> _AtomTree:
    """The atom tree of `kind` under `meyer`, built once and kept on the lattice;
    a lattice that `validate_lattice` rejects raises its problems."""
    tree = lattice._trees.get((meyer, kind))
    if tree is None:
        if not (report := validate_lattice(lattice, meyer)):
            raise LatticeError("; ".join(report.problems))
        tree = lattice._trees[meyer, kind] = _AtomTree(lattice, meyer, kind)
    return tree


def _conditioned(lattice, meyer, kind: Kind, columns) -> tuple[_AtomTree, list[int], int]:
    """The atom tree of `kind` with its masses, and per node up to the last
    column the P-weighted sum of its cells in its instant's column, integers
    over one denominator den: the columns are `_scaled` once, and a node's
    average is sums[j] / (mass[j] * den)."""
    tree = _atom_tree(lattice, meyer, kind)
    weights, _ = lattice.weights
    if tree.mass is None:
        mass = [sum(map(weights.__getitem__, paths)) for paths in tree.paths]
        (tree.cofactor,), tree.unit = _scaled([[Fraction(1, m) for m in mass]])
        tree.mass = mass
    rows, den = _scaled(columns)
    cells = [[w * v for w, v in zip(weights, row)] for row in rows]
    width = len(cells)
    sums = [sum(map(cells[i].__getitem__, ps)) for i, ps in zip(tree.inst, tree.paths) if i < width]
    return tree, sums, den


def _node_columns(tree: _AtomTree, values) -> list[tuple]:
    """Per instant index, TERMINAL included, the column holding each path's
    node value; `values` may stop before the TERMINAL nodes, numbered last."""
    columns = [[None] * tree.n_paths for _ in range(tree.n_inst + 1)]
    for i, paths, v in zip(tree.inst, tree.paths, values):
        column = columns[i]
        for p in paths:
            column[p] = v
    return list(map(tuple, columns))


class LatticeProcess(NamedTuple("_Columns", [("columns", tuple[tuple[Fraction, ...], ...])])):
    """A ladlag process on the instant chain and TERMINAL.

    `columns[i][p]` is the value on path p at instant index i, and column
    n_instants is the TERMINAL slice, governed by F_K.  Per-path rows
    (`from_rows`, `rows`) are the forms in which processes are read and
    rendered; the terminal slice of `from_rows` defaults to zero on every
    path (the usual convention for rewards).  `from_rows` keeps a cell
    that is already a `Fraction` and wraps any other cell in one.  It is a
    tuple of its one field whose instance `__dict__` holds `reward_fault`'s
    answer; copies, pickles and `_replace` carry none.
    """

    def __getstate__(self) -> None:
        return None

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[Fraction | int]],
        terminal: Sequence[Fraction | int] | None = None,
    ) -> "LatticeProcess":
        vals = tuple(tuple(map(_exact, row)) for row in rows)
        if len({len(row) for row in vals}) > 1:
            raise LatticeError("all paths must carry the same number of instants")
        term = (0,) * len(vals) if terminal is None else terminal
        term = tuple(map(_exact, term))
        if len(term) != len(vals):
            raise LatticeError("terminal slice length must match the path count")
        return cls((*zip(*vals), term))

    @classmethod
    def constant(cls, lattice: FilteredLattice, value: Fraction | int) -> "LatticeProcess":
        return cls(((Fraction(value),) * lattice.n_paths,) * (lattice.n_instants + 1))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Per path, the values at the instants before TERMINAL."""
        return tuple(zip(*self.columns[:-1]))


def _exact(v: Fraction | int) -> Fraction:
    """`v` if its type is exactly `Fraction`, else `Fraction(v)`."""
    return v if type(v) is Fraction else Fraction(v)


def _require_shape(lattice: FilteredLattice, table, name: str = "process") -> None:
    """Raise LatticeError unless `table` fits the lattice: a process is
    n_instants + 1 columns of n_paths values, and a per-path table (such as
    a measure's masses) is n_paths rows of n_instants values."""
    if isinstance(table, LatticeProcess):
        table, outer, inner = table.columns, "columns", "paths"
        want, size = lattice.n_instants + 1, lattice.n_paths
    else:
        outer, inner = "paths", "instants"
        want, size = lattice.n_paths, lattice.n_instants
    sizes = sorted({len(row) for row in table})
    if len(table) != want or sizes != [size]:
        got = "/".join(map(str, sizes)) or "0"
        raise LatticeError(
            f"{name} has {len(table)} {outer} of {got} {inner}; "
            f"the lattice needs {want} {outer} of {size} {inner}"
        )


class RandomInstant(_Record):
    """A per-path instant index, with `n_instants` standing for TERMINAL;
    the raw material of stopping times.  A `_Record`, as its order is the
    pathwise partial one (`__le__`), not a tuple's lexicographic one."""

    def __init__(self, indices: tuple[int, ...], n_instants: int) -> None:
        # set directly, not through `_store`: one is built per listed stop
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "n_instants", n_instants)

    @classmethod
    def from_assignment(
        cls, lattice: FilteredLattice, assignment: Sequence[TimePoint]
    ) -> "RandomInstant":
        """The random instant taking `assignment[p]` on path p."""
        n = lattice.n_instants
        indices = tuple(n if u is TERMINAL else u.index for u in assignment)
        if len(indices) != lattice.n_paths or any(
            u is not TERMINAL and i >= n for u, i in zip(assignment, indices)
        ):
            raise LatticeError(f"{tuple(assignment)} is not a random instant of this lattice")
        return cls(indices, n)

    @classmethod
    def constant(cls, lattice: FilteredLattice, u: TimePoint) -> "RandomInstant":
        return cls.from_assignment(lattice, (u,) * lattice.n_paths)

    @property
    def assignment(self) -> tuple[TimePoint, ...]:
        """The per-path `Instant` or TERMINAL, for rendering."""
        n = self.n_instants
        return tuple(TERMINAL if i == n else FilteredLattice.instant_at(i) for i in self.indices)

    def __repr__(self) -> str:
        """The assignment, or, for an index outside 0..n_instants, the raw
        fields: such an instant has no assignment to render."""
        n = self.n_instants
        if all(0 <= i <= n for i in self.indices):
            return f"RandomInstant(assignment={self.assignment!r})"
        return super().__repr__()

    def __le__(self, other: "RandomInstant") -> bool:
        return all(a <= b for a, b in zip(self.indices, other.indices))

    def value_of(self, process: LatticeProcess) -> tuple[Fraction, ...]:
        """The per-path reading of `process` at this random instant."""
        return tuple(process.columns[i][p] for p, i in enumerate(self._reads(process)))

    def _reads(self, process: LatticeProcess) -> tuple[int, ...]:
        """The indices, once they are column indices of `process`: one per
        path, each in 0..n_instants, and n_instants + 1 columns; a
        LatticeError if not."""
        n, width, paths = self.n_instants, len(process.columns), len(self.indices)
        if width != n + 1:
            raise LatticeError(f"a random instant on {n} instants cannot read {width} columns")
        if bad := [len(column) for column in process.columns if len(column) != paths]:
            raise LatticeError(f"a random instant on {paths} paths cannot read {bad[0]} paths")
        if bad := [i for i in self.indices if not 0 <= i <= n]:
            raise LatticeError(f"random instant index {bad[0]} lies outside 0..{n}")
        return self.indices


def _instant_fault(lattice: FilteredLattice, T: RandomInstant) -> str | None:
    """Why T is not a random instant of the lattice (one index per path, each
    in 0..n_instants, with the lattice's TERMINAL index), or None."""
    n = lattice.n_instants
    if T.n_instants != n or len(T.indices) != lattice.n_paths:
        return f"{T!r} is not a random instant of this lattice"
    if bad := [i for i in T.indices if not 0 <= i <= n]:
        return f"random instant index {bad[0]} lies outside 0..{n}"
    return None


def is_measurable(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    kind: Kind,
) -> bool:
    """True iff every column is constant on the atoms of its field, the atom
    tree's nodes; the terminal column's field is F_K, the terminal
    information.  Each cell is compared with its node's first cell, unhashed."""
    _require_shape(lattice, process)
    tree, columns = _atom_tree(lattice, meyer, kind), process.columns
    for i, paths in zip(tree.inst, tree.paths):
        cells = [columns[i][p] for p in paths]
        if cells.count(cells[0]) != len(cells):
            return False
    return True


def reward_fault(
    lattice: FilteredLattice, meyer: MeyerStructure, process: LatticeProcess
) -> str | None:
    """Why `process` is not a reward, or None if it is one.

    A reward is Lambda-measurable, nonnegative and 0 at TERMINAL; the
    engine raises the answer as a LatticeError.  The answer is kept on the
    process, keyed by the Lambda atom tree it was decided on, so a process
    is walked once per lattice and Meyer structure.
    """
    _require_shape(lattice, process)
    tree = _atom_tree(lattice, meyer, Kind.LAMBDA)
    answers = vars(process).setdefault("_rewards", {})
    if tree not in answers:
        if not is_measurable(lattice, meyer, process, Kind.LAMBDA):
            answers[tree] = "process is not Lambda-measurable"
        elif any(v < 0 for column in process.columns[:-1] for v in column):
            answers[tree] = "process must be nonnegative"
        elif any(t != 0 for t in process.columns[-1]):
            answers[tree] = "process must vanish at TERMINAL"
        else:
            answers[tree] = None
    return answers[tree]


def is_lambda_stopping_time(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    T: RandomInstant,
    kind: Kind = Kind.LAMBDA,
) -> bool:
    """True iff T is a random instant of the lattice (one index per path,
    each in 0..n_instants, with the lattice's TERMINAL index) and {T <= u}
    is a union of atoms of the instant-u field, for all u: no atom tree node
    holds a path stopped by its instant and one that goes on."""
    if _instant_fault(lattice, T):
        return False
    tree, idx = _atom_tree(lattice, meyer, kind), T.indices
    for i, paths in zip(tree.inst, tree.paths):
        stops = [idx[p] for p in paths]
        if min(stops) <= i < max(stops):
            return False
    return True


def restrict_time(T: RandomInstant, H: frozenset[int] | set[int]) -> RandomInstant:
    """T on H, TERMINAL off H (the classical T_H)."""
    n = T.n_instants
    return RandomInstant(tuple(i if p in H else n for p, i in enumerate(T.indices)), n)


def field_at_time(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    T: RandomInstant,
    kind: Kind,
) -> Partition:
    """Partition generated by Z_T over kind-measurable Z.

    Paths first split by the value of T; within {T = u} they split by the
    instant-u field, and within {T = TERMINAL} by the terminal field F_K:
    each atom tree node keeps the paths that T stops at its instant.  A T off
    the lattice raises LatticeError.
    """
    if fault := _instant_fault(lattice, T):
        raise LatticeError(fault)
    tree, idx = _atom_tree(lattice, meyer, kind), T.indices
    groups = ([p for p in paths if idx[p] == i] for i, paths in zip(tree.inst, tree.paths))
    return make_partition(group for group in groups if group)


def section_witness(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    B: Iterable[tuple[int, Instant]],
) -> RandomInstant:
    """Earliest-instant section of a measurable set of (path, instant) pairs.

    Returns a stopping time S with graph(S) inside B and P(S < TERMINAL)
    equal to the probability of B's path projection; on a finite lattice the
    section theorem needs no epsilon.
    """
    slices: dict[int, set[int]] = {}
    for p, u in B:
        if u is TERMINAL:
            raise LatticeError("section sets live on Omega x [0, infinity)")
        if u.epoch > lattice.epoch_count:
            raise LatticeError(f"instant {u} beyond epoch_count {lattice.epoch_count}")
        if not 0 <= p < lattice.n_paths:
            raise LatticeError(f"path {p} is not one of the lattice's {lattice.n_paths} paths")
        slices.setdefault(u.index, set()).add(p)
    tree = _atom_tree(lattice, meyer, Kind.LAMBDA)
    for i, paths in zip(tree.inst, tree.paths):
        if i in slices and len({p in slices[i] for p in paths}) > 1:
            raise LatticeError(f"not a Lambda-set: slice at index {i} is not a union of atoms")
    hits = _first_hits(lattice, (0,) * lattice.n_paths, lambda p, i: p in slices.get(i, ()))
    return RandomInstant(hits, lattice.n_instants)


class DividedQuadruple(NamedTuple):
    """A stop split into just-before / at / just-after parts.

    `T` takes grid (AT) values or TERMINAL; `w_minus`, `w`, `w_plus`
    partition the path set and select the left-limit, on-time, and
    right-limit readings respectively.
    """

    T: RandomInstant
    w_minus: frozenset[int]
    w: frozenset[int]
    w_plus: frozenset[int]


def to_divided_quadruple(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    T: RandomInstant,
) -> DividedQuadruple:
    """Canonical quadruple form of an instant-valued stopping time.

    Grid stops go to `w`, interval stops become just-after stops of their
    grid point (`w_plus`), TERMINAL goes to `w`; `w_minus` is always empty
    because entry times on a finite lattice are attained.
    """
    if not is_lambda_stopping_time(lattice, meyer, T, Kind.LAMBDA):
        raise LatticeError("to_divided_quadruple expects a Lambda-stopping time")
    return _canonical_quadruple(lattice, T.indices)


def _canonical_quadruple(lattice: FilteredLattice, idx: Sequence[int]) -> DividedQuadruple:
    """`to_divided_quadruple` of the index tuple `idx`, which must already
    be a Lambda-stopping time; n_instants, which is even, stands for TERMINAL."""
    n = lattice.n_instants
    return DividedQuadruple(
        T=RandomInstant(tuple(i - i % 2 for i in idx), n),
        w_minus=frozenset(),
        w=frozenset(p for p, i in enumerate(idx) if i % 2 == 0),
        w_plus=frozenset(p for p, i in enumerate(idx) if i % 2 == 1),
    )


def _first_hits(
    lattice: FilteredLattice, lower: Sequence[int], hit: Callable[[int, int], bool]
) -> tuple[int, ...]:
    """Per path p, the first instant index i >= lower[p] with hit(p, i), or
    n_instants (TERMINAL) if there is none: the debut after `lower` of a set
    of (path, instant) cells, which is how every stopping rule here reads."""
    n = lattice.n_instants
    return tuple(next((i for i in range(low, n) if hit(p, i)), n) for p, low in enumerate(lower))


def _divided_readings(lattice: FilteredLattice, q: DividedQuadruple) -> tuple[int, ...]:
    """Per path, the instant index that `from_divided_quadruple` reads, with
    n_instants for TERMINAL; accrual cutoffs are read from it as well."""
    out = []
    for p, i in enumerate(q.T.indices):
        if p in q.w_minus:
            if i < 2:
                raise LatticeError("w_minus may not contain a path stopped at epoch 0")
            i = 2 * (i // 2) - 1
        elif p in q.w_plus:
            if i == lattice.n_instants:
                raise LatticeError("w_plus may not contain a TERMINAL path")
            i = 2 * (i // 2) + 1
        out.append(i)
    return tuple(out)


def from_divided_quadruple(lattice: FilteredLattice, q: DividedQuadruple) -> RandomInstant:
    """Instant form of a quadruple: w_minus at epoch k reads (k-1, INT),
    w reads (k, AT), w_plus reads (k, INT); at TERMINAL, w_minus reads the
    last interval and w reads TERMINAL."""
    return RandomInstant(_divided_readings(lattice, q), lattice.n_instants)


def validate_divided(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    q: DividedQuadruple,
) -> ValidationReport:
    """Check the five defining clauses of a divided stopping time."""
    problems: list[str] = []
    n = lattice.n_paths
    all_paths = frozenset(range(n))
    if (
        q.w_minus | q.w | q.w_plus != all_paths
        or q.w_minus & q.w
        or q.w_minus & q.w_plus
        or q.w & q.w_plus
    ):
        problems.append("w_minus, w, w_plus do not partition the path set")
    t = q.T.indices
    for p, i in enumerate(t):
        if i % 2:
            problems.append(f"T takes the interval value {lattice.instant_at(i)} on path {p}")
    if not is_lambda_stopping_time(lattice, meyer, q.T, Kind.OPTIONAL):
        problems.append("T is not an optional stopping time")
    if problems:
        return ValidationReport(ok=False, problems=tuple(problems))

    pred_field = field_at_time(lattice, meyer, q.T, Kind.PREDICTABLE)
    lam_field = field_at_time(lattice, meyer, q.T, Kind.LAMBDA)
    opt_field = field_at_time(lattice, meyer, q.T, Kind.OPTIONAL)
    if any(t[p] == 0 for p in q.w_minus):
        problems.append("(i) w_minus contains a path with T at epoch 0")
    if not is_union_of_atoms(q.w_minus, pred_field):
        problems.append("(i) w_minus is not measurable for the predictable field at T")
    if not is_union_of_atoms(q.w, lam_field):
        problems.append("(ii) w is not measurable for the Lambda field at T")
    if any(t[p] == lattice.n_instants for p in q.w_plus):
        problems.append("(iii) w_plus contains a path with T = TERMINAL")
    if not is_union_of_atoms(q.w_plus, opt_field):
        problems.append("(iii) w_plus is not measurable for the optional field at T")
    if not is_lambda_stopping_time(lattice, meyer, restrict_time(q.T, q.w_minus), Kind.PREDICTABLE):
        problems.append("(iv) T restricted to w_minus is not a predictable stopping time")
    if not is_lambda_stopping_time(lattice, meyer, restrict_time(q.T, q.w), Kind.LAMBDA):
        problems.append("(v) T restricted to w is not a Lambda-stopping time")
    return ValidationReport(ok=not problems, problems=tuple(problems))
