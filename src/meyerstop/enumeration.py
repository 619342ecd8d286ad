"""Stopping times on the instant chain, decided part by part.

A stopping time of a given kind assigns each path an instant (or TERMINAL)
so that, at every instant, the set of already-stopped paths is a union of
atoms of that instant's field.  The fields refine each other along the
chain, so the paths still active at instant i fall into parts, the active
shares of instant i's atoms, and each part decides on its own: it stops
whole at i, or passes on to its parts at i + 1.  The tree is built once,
from its root parts at instant 0, and every count, fold and walk enters it
there.  Every restriction on the times (T >= S, T <= U, certified cells) is
the one `allowed` table the tree is built with: bit p of `allowed[i]` lets
path p stop at instant i, and `allowed[n_instants]` lists the paths that
may run to TERMINAL.  Each (instant, part) node counts its live completions
once, and one fold per integer gain table gives, in one visit per node, its
best gain and how many completions attain it.  That fold is the Snell
envelope's backward recursion in integers, so `snell/oracle` compares two
codings of one recursion; the tests keep the per-state fold over all
subsets of a state's parts, and the plain listing, as independent oracles.
A fold reads a value or a count at any size; the guard bounds only a walk,
checked before it starts against the number of times it will list.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .lattice import (
    FilteredLattice,
    Kind,
    LatticeProcess,
    MeyerStructure,
    RandomInstant,
    _weighted,
    field_partitions,
)

DEFAULT_GUARD = 10**6


class EnumerationGuardError(RuntimeError):
    """The instance admits more stopping times than the enumeration guard."""


def _mask(paths) -> int:
    return sum(1 << p for p in paths)


def _check_guard(total: int, guard: int | None) -> None:
    if guard is not None and total > guard:
        raise EnumerationGuardError(f"{total} stopping times exceed the guard of {guard}")


def _cells(lattice: FilteredLattice, allowed: Callable[[int, int], bool]) -> list[int]:
    """The `allowed` table of the cells (p, i) where `allowed(p, i)`."""
    paths = range(lattice.n_paths)
    return [_mask(p for p in paths if allowed(p, i)) for i in range(lattice.n_instants + 1)]


def _between(lattice: FilteredLattice, lower, upper=None) -> list[int]:
    """The `allowed` table of the times with lower <= T <= upper (None: no bound)."""
    n = lattice.n_instants
    lo = (0,) * lattice.n_paths if lower is None else lower.indices
    hi = (n,) * lattice.n_paths if upper is None else upper.indices
    return _cells(lattice, lambda p, i: lo[p] <= i <= hi[p])


class _Part:
    """A decision-tree node: the active share of an atom of instant i's field,
    or the paths left at n_instants.  `options` are its live choices, to stop
    whole and to pass on to its parts at i + 1; `total` counts its completions."""

    __slots__ = ("total", "options")

    def __init__(self, steps: _Decisions, i: int, paths: tuple[int, ...]) -> None:
        stops = not _mask(paths) & ~steps.allowed[i]
        kids = steps.split(i + 1, paths) if i < steps.n_inst else []
        passes = i < steps.n_inst and math.prod(kid.total for kid in kids)
        self.total = stops + passes
        # each choice: (the paths it stops at i, the parts it passes on)
        self.options = [((), kids)] * bool(passes) + [(paths, [])] * stops


class _Decisions:
    """The decision tree of one kind of stopping time, within `allowed` cells:
    its root parts at instant 0 and the count of its live times, built once."""

    def __init__(self, lattice, meyer, kind: Kind, allowed: list[int] | None = None) -> None:
        self.n_paths = lattice.n_paths
        self.n_inst = lattice.n_instants
        fields = [*field_partitions(lattice, meyer, kind), [range(self.n_paths)]]
        self.owner = [{p: k for k, atom in enumerate(part) for p in atom} for part in fields]
        self.allowed = allowed or [(1 << self.n_paths) - 1] * (self.n_inst + 1)
        self.roots = self.split(0, tuple(range(self.n_paths)))
        self.total = math.prod(part.total for part in self.roots)

    def split(self, i: int, paths: tuple[int, ...]) -> list[_Part]:
        """The parts of `paths` at instant i (one at n_instants), with their subtrees."""
        shares: dict[int, list[int]] = {}
        for p in paths:
            shares.setdefault(self.owner[i][p], []).append(p)
        return [_Part(self, i, tuple(share)) for share in shares.values()]


def _walk(steps: _Decisions, keep=None) -> Iterator[tuple[int, ...]]:
    """Index tuples of the live times, through the choices `keep(i, part,
    choice)` admits.  The parts still to decide are a linked list (i, part,
    rest); each takes its first choice and leaves the other on a stack, where
    the walk resumes after each time.  A path is set by the part that stops
    it, at latest at n_instants (TERMINAL)."""
    assign = [steps.n_inst] * steps.n_paths
    # (choice, its instant, the parts after it); a dead root part leaves none
    left = [(((), steps.roots), -1, None)] if steps.total else []
    while left:
        (paths, kids), i, pending = left.pop()
        while True:
            for p in paths:
                assign[p] = i
            for kid in reversed(kids):
                pending = (i + 1, kid, pending)
            if pending is None:
                break
            i, part, pending = pending
            options = part.options
            if keep is not None and len(options) > 1:
                options = [choice for choice in options if keep(i, part, choice)]
            if len(options) > 1:
                left.append((options[1], i, pending))
            paths, kids = options[0]
        yield tuple(assign)


def _fold_parts(parts, i: int, gains, memo) -> tuple[int | None, int, int]:
    """The fold of parts at instant i, which decide independently: best adds
    up over them, ways and total multiply.  A part's (best, ways), kept in
    `memo`, is its best choice's, with the ways of the choices that tie."""
    total = math.prod(part.total for part in parts)
    if not total:
        return None, 0, 0
    for part in parts:
        if part not in memo:
            values = [_choice(choice, i, gains, memo) for choice in part.options]
            top = max(value for value, _ in values)
            memo[part] = top, sum(n for value, n in values if value == top)
    best = sum(memo[part][0] for part in parts)
    return best, math.prod(memo[part][1] for part in parts), total


def _choice(choice, i: int, gains, memo) -> tuple[int, int]:
    """(best, ways) of a live choice at instant i: the gain of the paths it
    stops, plus the fold of the parts it passes on."""
    paths, kids = choice
    best, ways, _ = _fold_parts(kids, i + 1, gains, memo)
    return sum(gains[i][p] for p in paths) + best, ways


def count_stopping_times(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    kind: Kind = Kind.LAMBDA,
) -> int:
    """Number of stopping times."""
    return _Decisions(lattice, meyer, kind).total


def iter_stopping_index_tuples(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    kind: Kind = Kind.LAMBDA,
    guard: int | None = DEFAULT_GUARD,
) -> Iterator[tuple[int, ...]]:
    """Yield stopping times as index tuples; n_instants stands for TERMINAL.
    The guard bounds the total count, the number of times listed, before the
    walk starts."""
    steps = _Decisions(lattice, meyer, kind)
    _check_guard(steps.total, guard)
    yield from _walk(steps)


def enumerate_stopping_times(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    kind: Kind = Kind.LAMBDA,
    guard: int | None = DEFAULT_GUARD,
) -> Iterator[RandomInstant]:
    for idx in iter_stopping_index_tuples(lattice, meyer, kind, guard):
        yield RandomInstant(idx, lattice.n_instants)


class _Optimum(NamedTuple):
    """Max of E[process_T] over the allowed times (None if there is none),
    how many attain it, how many there are, and a walk of the maximizers."""

    value: Fraction | None
    ways: int
    total: int
    maximizers: Callable[[], Iterator[tuple[int, ...]]]


def _maximum(lattice, meyer, process: LatticeProcess, kind, allowed) -> _Optimum:
    """Maximize E[process_T] over the stopping times within `allowed`.

    One fold over the `lattice._weighted` cells P(p)·process[i][p], integers
    over one denominator, gives the value, the maximizer count and the count
    of times, at one visit per node whatever the count.  Nothing is listed
    until `maximizers()` starts a walk, in walk order, of the `ways`
    maximizers; a caller that lists them bounds `ways` first.
    """
    gains, den = _weighted(lattice, process.columns)
    steps = _Decisions(lattice, meyer, kind, allowed)
    (best, ways, total), attaining = _best(steps, gains)
    top = None if best is None else Fraction(best, den)
    return _Optimum(top, ways, total, attaining)


def _ranked(lattice, meyer, process: LatticeProcess, allowed: list[int]):
    """The max of E[process_T] over every Lambda-stopping time, and an optimal
    time with a cell outside `allowed` (None if there is none), in one fold.

    Times rank by value, then by their cells outside `allowed`: a cell gains
    g·(n_paths + 1) + [outside], and a time has n_paths cells, so the best
    sum's quotient by n_paths + 1 is the optimum and its remainder is > 0
    exactly when an optimal time leaves `allowed`; the attaining walk's
    first time is one.
    """
    gains, den = _weighted(lattice, process.columns)
    rank = lattice.n_paths + 1
    ranked = [
        [g * rank + 1 - (inside >> p & 1) for p, g in enumerate(row)]
        for row, inside in zip(gains, allowed)
    ]
    steps = _Decisions(lattice, meyer, Kind.LAMBDA)
    (best, _, _), attaining = _best(steps, ranked)
    return Fraction(best // rank, den), next(attaining()) if best % rank else None


def _best(steps: _Decisions, gains):
    """The fold's (best, ways, total) of the integer `gains[i][p]` over the
    live times, and a walk of the times attaining that best, in walk order."""
    memo: dict[_Part, tuple[int, int]] = {}
    top = _fold_parts(steps.roots, 0, gains, memo)

    def attains(i: int, part: _Part, choice) -> bool:
        return _choice(choice, i, gains, memo)[0] == memo[part][0]

    return top, lambda: _walk(steps, attains)
