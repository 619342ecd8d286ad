"""Stopping times on the instant chain, decided one state at a time.

A stopping time of a given kind assigns each path an instant (or TERMINAL)
so that, at every instant, the set of already-stopped paths is a union of
atoms of that instant's field.  Because the per-instant fields refine each
other along the chain, the valid assignments are exactly those produced by
deciding, instant by instant and atom by atom, whether the still-active
part of the atom stops now.

A state is an instant index with the bitmask of still-active paths; one
choice step lists what a state may stop.  Counting is the (+, x) and
maximizing the (max, +) form of one recursion over that step, memoized per
state, so each costs one visit per reachable state, not one per stopping
time.  Iteration and the maximizer walk follow the same step to the times.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

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
        raise EnumerationGuardError(
            f"{total} stopping times exceed the guard of {guard}"
        )


class _Decisions:
    """The choice step for one kind of stopping time, with T >= lower.

    `gains[i][p]`, if given, is the integer worth of stopping p at instant i.
    """

    def __init__(
        self,
        lattice: FilteredLattice,
        meyer: MeyerStructure,
        kind: Kind,
        lower: RandomInstant | None,
        gains: list[list[int]] | None = None,
    ) -> None:
        self.n_paths = lattice.n_paths
        self.n_inst = lattice.n_instants
        self.atoms = [
            [_mask(block) for block in part]
            for part in field_partitions(lattice, meyer, kind)
        ]
        low = (0,) * self.n_paths if lower is None else lower.indices
        self.ready = [
            _mask(p for p in range(self.n_paths) if low[p] <= i)
            for i in range(self.n_inst)
        ]
        self.gains = gains

    def choices(self, i: int, active: int) -> list[tuple[int, int]]:
        """(stopped mask, gain) of every choice at state (i, active).

        The eligible parts are the active shares of instant i's atoms whose
        paths have all reached `lower`.  Choice c stops the parts at the set
        bits of c and extends the choice without c's lowest bit, so the list
        runs in the order of c.
        """
        ready = self.ready[i]
        parts = [
            part
            for atom in self.atoms[i]
            if (part := atom & active) and not part & ~ready
        ]
        column = self.gains[i] if self.gains else None
        worth = [sum(column[p] for p in _bits(part)) if column else 0 for part in parts]
        out = [(0, 0)]
        for c in range(1, 1 << len(parts)):
            low = c & -c
            j = low.bit_length() - 1
            stopped, gain = out[c ^ low]
            out.append((stopped | parts[j], gain + worth[j]))
        return out


def _walk(
    steps: _Decisions,
    active: int,
    keep: Callable[[int, int, int, int], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Index tuples reached from instant 0, through the choices `keep` admits.

    Paths never active stay at n_instants, which stands for TERMINAL.
    """
    n_inst = steps.n_inst
    assign = [n_inst] * steps.n_paths

    def rec(i: int, active: int) -> Iterator[tuple[int, ...]]:
        if i == n_inst or not active:
            yield tuple(assign)
            return
        for stopped, gain in steps.choices(i, active):
            if keep is not None and not keep(i, active, stopped, gain):
                continue
            for p in _bits(stopped):
                assign[p] = i
            yield from rec(i + 1, active & ~stopped)
            for p in _bits(stopped):
                assign[p] = n_inst

    return rec(0, active)


def _fold(
    steps: _Decisions, leaf: Callable[[int], int], combine: Callable
) -> Callable[[int, int], int]:
    """Memoized value of a state: `leaf(active)` once the chain ends or every
    path has stopped, else `combine` over its choices of gain + next value."""
    memo: list[dict[int, int]] = [{} for _ in range(steps.n_inst)]

    def value(i: int, active: int) -> int:
        if i == steps.n_inst or not active:
            return leaf(active)
        got = memo[i].get(active)
        if got is None:
            got = memo[i][active] = combine(
                gain + value(i + 1, active & ~stopped)
                for stopped, gain in steps.choices(i, active)
            )
        return got

    return value


def count_stopping_times(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    kind: Kind = Kind.LAMBDA,
    lower: RandomInstant | None = None,
    scope: frozenset[int] | None = None,
) -> int:
    """Number of stopping times (with T >= lower pathwise, within scope)."""
    count = _fold(_Decisions(lattice, meyer, kind, lower), lambda active: 1, sum)
    return count(0, _scope_mask(lattice, scope))


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
    if guard is not None:
        _check_guard(count_stopping_times(lattice, meyer, kind, lower, scope), guard)
    steps = _Decisions(lattice, meyer, kind, lower)
    yield from _walk(steps, _scope_mask(lattice, scope))


def enumerate_stopping_times(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    kind: Kind = Kind.LAMBDA,
    lower: RandomInstant | None = None,
    guard: int | None = DEFAULT_GUARD,
) -> Iterator[RandomInstant]:
    for idx in iter_stopping_index_tuples(lattice, meyer, kind, lower, None, guard):
        yield RandomInstant(idx, lattice.n_instants)


def maximize_over_stopping_times(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    weights: Sequence[Sequence[Fraction]],
    terminal_weights: Sequence[Fraction],
    kind: Kind = Kind.LAMBDA,
    lower: RandomInstant | None = None,
    guard: int | None = DEFAULT_GUARD,
) -> tuple[Fraction, list[tuple[int, ...]], int]:
    """Maximize sum_p weights[p][T(p)] over all stopping times.

    `weights[p][i]` is the probability-weighted contribution of stopping
    path p at instant index i; `terminal_weights[p]` covers TERMINAL.  The
    weights are scaled once to integers over their common denominator, and
    only the best value per state is memoized.  Returns the exact maximum,
    all maximizers in canonical (index-tuple) order, and the number of
    stopping times.
    """
    value, maximizers, total = _maximum(
        lattice, meyer, weights, terminal_weights, kind, lower, guard
    )
    return value, maximizers(), total


def _weighted(lattice: FilteredLattice, process: LatticeProcess):
    """The `weights` and `terminal_weights` whose maximum is max E[process_T]."""
    probs = lattice.probabilities
    weights = [[c * v for v in row] for c, row in zip(probs, process.values)]
    return weights, [c * t for c, t in zip(probs, process.terminal)]


def _maximum(lattice, meyer, weights, terminal_weights, kind, lower, guard):
    """`maximize_over_stopping_times` with the maximizers left to a call of
    the returned walk, so a caller that reads only the value never walks."""
    total = count_stopping_times(lattice, meyer, kind, lower)
    _check_guard(total, guard)
    den = math.lcm(
        *(w.denominator for row in weights for w in row),
        *(w.denominator for w in terminal_weights),
    )
    gains = [
        [row[i].numerator * (den // row[i].denominator) for row in weights]
        for i in range(lattice.n_instants)
    ]
    terminal = [w.numerator * (den // w.denominator) for w in terminal_weights]
    steps = _Decisions(lattice, meyer, kind, lower, gains)
    best = _fold(steps, lambda active: sum(terminal[p] for p in _bits(active)), max)

    def attains(i: int, active: int, stopped: int, gain: int) -> bool:
        return gain + best(i + 1, active & ~stopped) == best(i, active)

    full = _scope_mask(lattice, None)
    top = best(0, full)
    return Fraction(top, den), lambda: sorted(_walk(steps, full, attains)), total
