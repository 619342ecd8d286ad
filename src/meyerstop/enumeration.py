"""Stopping times on the instant chain, decided one state at a time.

A stopping time of a given kind assigns each path an instant (or TERMINAL)
so that, at every instant, the set of already-stopped paths is a union of
atoms of that instant's field.  Because the per-instant fields refine each
other along the chain, the valid assignments are exactly those produced by
deciding, instant by instant and atom by atom, whether the still-active
part of the atom stops now.

A state is an instant index with the bitmask of still-active paths; one
choice step lists what a state may stop.  Every restriction on the times
(T >= S, T <= U, a set of certified cells) is one `allowed` table: bit p
of `allowed[i]` lets path p stop at instant i, and `allowed[n_instants]`
lists the paths that may run to TERMINAL.  A part of an atom may stop
only if all its paths may, and a state whose active paths may not reach
TERMINAL is dead.  One memoized fold gives each state its best integer
gain, how many completions attain it and how many are live, so the count,
the maximum and the maximizer count cost one visit per reachable state,
not one per stopping time.  Iteration and the maximizer walk follow the
same step to the times.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, NamedTuple

from .lattice import (
    FilteredLattice,
    Kind,
    LatticeProcess,
    MeyerStructure,
    RandomInstant,
    field_partitions,
)

DEFAULT_GUARD = 10**6


class EnumerationGuardError(RuntimeError):
    """The instance admits more stopping times than the enumeration guard."""


def _mask(paths) -> int:
    m = 0
    for i in paths:
        m |= 1 << i
    return m


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _scope_mask(lattice: FilteredLattice, scope: frozenset[int] | None) -> int:
    return (1 << lattice.n_paths) - 1 if scope is None else _mask(scope)


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


class _Decisions:
    """The choice step for one kind of stopping time, within `allowed` cells."""

    def __init__(self, lattice, meyer, kind: Kind, allowed: list[int] | None = None) -> None:
        self.n_paths = lattice.n_paths
        self.n_inst = lattice.n_instants
        self.atoms = [[_mask(b) for b in part] for part in field_partitions(lattice, meyer, kind)]
        self.allowed = allowed or [(1 << self.n_paths) - 1] * (self.n_inst + 1)

    def live(self, active: int) -> bool:
        """Whether the paths still active at the end may run to TERMINAL."""
        return not active & ~self.allowed[self.n_inst]

    def choices(self, i: int, active: int, column=None) -> list[tuple[int, int]]:
        """(stopped mask, gain) of every choice at state (i, active).

        The eligible parts are the active shares of instant i's atoms whose
        paths may all stop at i; a part's gain sums `column[p]` over its
        paths (0 without a column).  Choice c stops the parts at the set
        bits of c and extends the choice without c's lowest bit, so the list
        runs in the order of c.
        """
        ok = self.allowed[i]
        parts = [part for atom in self.atoms[i] if (part := atom & active) and not part & ~ok]
        worth = [sum(column[p] for p in _bits(part)) if column else 0 for part in parts]
        out = [(0, 0)]
        for c in range(1, 1 << len(parts)):
            low = c & -c
            j = low.bit_length() - 1
            stopped, gain = out[c ^ low]
            out.append((stopped | parts[j], gain + worth[j]))
        return out


def _walk(steps: _Decisions, active: int, keep=None) -> Iterator[tuple[int, ...]]:
    """Index tuples of the live times reached from instant 0, through the
    choices `keep(i, active, stopped)` admits.

    Paths never active stay at n_instants, which stands for TERMINAL.
    """
    return _walk_from(steps, 0, active, keep, [steps.n_inst] * steps.n_paths)


def _walk_from(steps, i, active, keep, assign) -> Iterator[tuple[int, ...]]:
    # a module-level recursion holds no reference cycle, so the fold that
    # `keep` reads is freed as soon as the walk ends
    if i == steps.n_inst or not active:
        if steps.live(active):
            yield tuple(assign)
        return
    for stopped, _ in steps.choices(i, active):
        if keep is not None and not keep(i, active, stopped):
            continue
        for p in _bits(stopped):
            assign[p] = i
        yield from _walk_from(steps, i + 1, active & ~stopped, keep, assign)
        for p in _bits(stopped):
            assign[p] = steps.n_inst


def _fold(steps: _Decisions, gains: list[list[int]] | None = None) -> Callable:
    """Memoized (best, ways, total) of a state over its live completions:
    the largest sum of `gains[i][p]` over the cells (p, i) stopped (row
    n_instants for TERMINAL, all 0 if None), how many attain it, and how
    many there are; (None, 0, 0) for a dead state."""
    return partial(_fold_at, steps, gains, [{} for _ in range(steps.n_inst)])


def _fold_at(steps, gains, memo, i: int, active: int) -> tuple[int | None, int, int]:
    if i == steps.n_inst or not active:
        if not steps.live(active):
            return None, 0, 0
        return sum(gains[i][p] for p in _bits(active)) if gains else 0, 1, 1
    got = memo[i].get(active)
    if got is None:
        best, ways, total = None, 0, 0
        for stopped, gain in steps.choices(i, active, gains and gains[i]):
            sub_best, sub_ways, sub_total = _fold_at(steps, gains, memo, i + 1, active & ~stopped)
            if not sub_total:
                continue
            total += sub_total
            sub_best += gain
            if best is None or sub_best > best:
                best, ways = sub_best, sub_ways
            elif sub_best == best:
                ways += sub_ways
        got = memo[i][active] = best, ways, total
    return got


def count_stopping_times(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    kind: Kind = Kind.LAMBDA,
    lower: RandomInstant | None = None,
    scope: frozenset[int] | None = None,
) -> int:
    """Number of stopping times (with T >= lower pathwise, within scope)."""
    steps = _Decisions(lattice, meyer, kind, _between(lattice, lower))
    return _fold(steps)(0, _scope_mask(lattice, scope))[2]


def iter_stopping_index_tuples(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    kind: Kind = Kind.LAMBDA,
    lower: RandomInstant | None = None,
    scope: frozenset[int] | None = None,
    guard: int | None = DEFAULT_GUARD,
) -> Iterator[tuple[int, ...]]:
    """Yield stopping times as index tuples; n_instants stands for TERMINAL.

    Paths outside `scope` are pinned to TERMINAL.  With `lower` set, only
    times with T >= lower per path are produced.  The guard bounds the total
    count before any enumeration happens.
    """
    steps = _Decisions(lattice, meyer, kind, _between(lattice, lower))
    active = _scope_mask(lattice, scope)
    if guard is not None:
        _check_guard(_fold(steps)(0, active)[2], guard)
    yield from _walk(steps, active)


def enumerate_stopping_times(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    kind: Kind = Kind.LAMBDA,
    lower: RandomInstant | None = None,
    guard: int | None = DEFAULT_GUARD,
) -> Iterator[RandomInstant]:
    for idx in iter_stopping_index_tuples(lattice, meyer, kind, lower, None, guard):
        yield RandomInstant(idx, lattice.n_instants)


class _Optimum(NamedTuple):
    """Max of E[process_T] over the allowed times (None if there is none),
    how many attain it, how many there are, and the sorted maximizers."""

    value: Fraction | None
    ways: int
    total: int
    maximizers: Callable[[], list[tuple[int, ...]]]


def _maximum(lattice, meyer, process: LatticeProcess, kind, allowed, guard) -> _Optimum:
    """Maximize E[process_T] over the stopping times within `allowed`.

    The probability-weighted cells are scaled once to integers over their
    common denominator; one fold gives the value, the maximizer count and
    the count the guard bounds, checked before any walk.  The maximizers
    are walked only when `maximizers()` is called.
    """
    probs = lattice.probabilities
    gains, den = _scaled([[c * v for c, v in zip(probs, col)] for col in process.columns])
    steps = _Decisions(lattice, meyer, kind, allowed)
    (best, ways, total), attaining = _best(steps, gains, _scope_mask(lattice, None))
    _check_guard(total, guard)
    top = None if best is None else Fraction(best, den)
    return _Optimum(top, ways, total, lambda: sorted(attaining()))


def _scaled(rows) -> tuple[list[list[int]], int]:
    """Rational rows as integer rows over their least common denominator,
    and that denominator."""
    den = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _best(steps: _Decisions, gains: list[list[int]], active: int):
    """The fold's (best, ways, total) of the integer `gains` over the live
    times from the paths in `active`, and a walk of the times attaining
    that best, in walk order."""
    value = _fold(steps, gains)

    def attains(i: int, act: int, stopped: int) -> bool:
        sub_best, _, sub_total = value(i + 1, act & ~stopped)
        gain = sum(gains[i][p] for p in _bits(stopped))
        return sub_total > 0 and gain + sub_best == value(i, act)[0]

    return value(0, active), lambda: _walk(steps, active, attains)
