"""Stopping times on the instant chain, decided part by part.

A stopping time of a given kind assigns each path an instant (or TERMINAL)
so that, at every instant, the set of already-stopped paths is a union of
atoms of that instant's field.  The fields refine each other along the
chain, so the paths still active at instant i fall into parts, the atoms of
instant i's field inside the part before, and each part decides on its
own: it stops whole at i, or passes on to its parts at i + 1.  The parts
are the nodes of the lattice's atom tree (`lattice._atom_tree`).  A fold of
integer gains is one loop over the nodes, children first, within one
`allowed` table (T >= S, T <= U, certified cells): bit p of `allowed[i]`
lets path p stop at instant i, and `allowed[n_instants]` lists the paths
that may run to TERMINAL.  It counts, values and flags each node's
attaining choices for one walk; the listing is the walk of the all-zero
fold.  That fold and `snell_envelope` are two loops of one recursion on
one tree; the tests keep the per-state fold over all subsets of a state's
parts, and the plain listing, as independent oracles.  A fold reads a
value or a count at any size; the guard bounds only a walk.
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
    _AtomTree,
    _atom_tree,
    _mask,
    _weighted,
)

DEFAULT_GUARD = 10**6


class EnumerationGuardError(RuntimeError):
    """The instance admits more stopping times than the enumeration guard."""


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


class _Fold(NamedTuple):
    """Per node: best gain, the ways that attain it, live count and the flags
    of its attaining choices (1 pass, 2 stop); `top` is the tree's (best,
    ways, total), best None if no time is live."""

    best: list[int]
    ways: list[int]
    total: list[int]
    flags: bytearray
    top: tuple[int | None, int, int]


def _fold(tree: _AtomTree, gains, allowed: list[int] | None = None) -> _Fold:
    """The fold of the integer `gains[i][p]` over the live times within
    `allowed` (None: all), children first.  A node stops, if its cells are
    allowed, for its paths' gains, or passes, if every part is live, for the
    sum of their bests; parts decide alone, so ways and totals multiply."""
    inst, paths, mask, kids, n = tree.inst, tree.paths, tree.mask, tree.kids, tree.n_inst
    size = len(inst)
    best, ways, total, flags = [0] * size, [0] * size, [0] * size, bytearray(size)
    for j in range(size - 1, -1, -1):
        i = inst[j]
        live = b = 0
        if i < n:
            live = w = 1
            for k in kids[j]:
                live *= total[k]
                b += best[k]
                w *= ways[k]
        if allowed is None or not mask[j] & ~allowed[i]:
            g = sum(map(gains[i].__getitem__, paths[j]))
            total[j] = live + 1
            if not live or g > b:
                best[j], ways[j], flags[j] = g, 1, 2
            else:
                best[j], ways[j], flags[j] = (g, w + 1, 3) if g == b else (b, w, 1)
        elif live:
            best[j], ways[j], total[j], flags[j] = b, w, live, 1
    count = math.prod(total[r] for r in tree.roots)
    top = sum(best[r] for r in tree.roots) if count else None
    return _Fold(best, ways, total, flags, (top, math.prod(ways[r] for r in tree.roots), count))


def _walk(tree: _AtomTree, flags: bytearray) -> Iterator[tuple[int, ...]]:
    """Index tuples of the times a fold flags at every choice, pass before
    stop.  The nodes still to decide are a linked list (node, rest); a node
    flagged both ways passes and leaves its stop on a stack, where the walk
    resumes after each time.  A path is set by the node that stops it."""
    inst, paths, kids = tree.inst, tree.paths, tree.kids
    assign = [tree.n_inst] * tree.n_paths
    pending = None
    for r in reversed(tree.roots):
        pending = r, pending
    # (a node to stop, the nodes after it); a dead root leaves none
    left = [(None, pending)] if all(flags[r] for r in tree.roots) else []
    while left:
        j, pending = left.pop()
        while True:
            if j is not None:
                for p in paths[j]:
                    assign[p] = inst[j]
            if pending is None:
                break
            j, pending = pending
            if flags[j] & 1:
                if flags[j] & 2:
                    left.append((j, pending))
                for k in reversed(kids[j]):
                    pending = k, pending
                j = None
        yield tuple(assign)


def count_stopping_times(
    lattice: FilteredLattice, meyer: MeyerStructure, kind: Kind = Kind.LAMBDA
) -> int:
    """Number of stopping times."""
    tree = _atom_tree(lattice, meyer, kind)
    return _fold(tree, tree.zero).top[2]


def iter_stopping_index_tuples(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    kind: Kind = Kind.LAMBDA,
    guard: int | None = DEFAULT_GUARD,
) -> Iterator[tuple[int, ...]]:
    """Yield stopping times as index tuples; n_instants stands for TERMINAL.
    The guard bounds the total count, the number of times listed, before the
    walk starts: the walk of the all-zero fold, where every live choice ties."""
    tree = _atom_tree(lattice, meyer, kind)
    fold = _fold(tree, tree.zero)
    _check_guard(fold.top[2], guard)
    yield from _walk(tree, fold.flags)


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
    tree = _atom_tree(lattice, meyer, kind)
    fold = _fold(tree, gains, allowed)
    best, ways, total = fold.top
    top = None if best is None else Fraction(best, den)
    return _Optimum(top, ways, total, lambda: _walk(tree, fold.flags))


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
    tree = _atom_tree(lattice, meyer, Kind.LAMBDA)
    fold = _fold(tree, ranked)
    best = fold.top[0]
    return Fraction(best // rank, den), next(_walk(tree, fold.flags)) if best % rank else None
