"""Projections, one-sided envelopes, and semicontinuity predicates.

A projection is one integer pass over the kind's atom tree.  On the
instant chain the limsup and liminf envelopes read the same single
neighbouring slice, so one envelope serves for both.  Semicontinuity in
expectation reduces to exact pointwise comparisons between a process and
projections of its envelopes, and the sequence-based definitions reduce to
one-step witnesses, which the equivalence checker decides per (instant,
atom) and by one memoized maximum over predictable stopping times.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .enumeration import _maximum
from .lattice import (
    FilteredLattice,
    InvariantError,
    Kind,
    LatticeError,
    LatticeProcess,
    MeyerStructure,
    RandomInstant,
    TERMINAL,
    TimePoint,
    _conditioned,
    _node_columns,
    _require_shape,
    field_partitions,
    is_lambda_stopping_time,
    reward_fault,
)


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


def project(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    kind: Kind,
) -> LatticeProcess:
    """Column-wise conditional expectation onto the kind's per-instant fields,
    one `Fraction` per node of its atom tree (`lattice._conditioned`); the
    process need not be measurable, and its terminal column is kept.
    """
    _require_shape(lattice, process)
    tree, sums, den = _conditioned(lattice, meyer, kind, process.columns[:-1])
    values = [Fraction(s, m * den) for s, m in zip(sums, tree.mass)]
    return LatticeProcess((*_node_columns(tree, values)[:-1], process.columns[-1]))


def envelope(lattice: FilteredLattice, process: LatticeProcess, side: Side) -> LatticeProcess:
    """One-sided limit process, limsup and liminf alike.

    RIGHT reads the interval after a grid point (and the grid value is not
    consulted); LEFT reads the interval before it, with the epoch-0 grid
    point reading itself.  Interval instants read themselves on both sides.
    At TERMINAL (an even index), LEFT reads the last interval and RIGHT
    keeps the terminal value.
    """
    n = lattice.n_instants
    if side is Side.RIGHT:
        reads = [min(i | 1, n) for i in range(n + 1)]
    else:
        reads = [i if i % 2 or i == 0 else i - 1 for i in range(n + 1)]
    return LatticeProcess(tuple(process.columns[i] for i in reads))


class UscVerdict(NamedTuple):
    ok: bool
    witness: tuple[int, TimePoint] | None

    def __bool__(self) -> bool:
        return self.ok


def is_right_usc_in_expectation(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
) -> UscVerdict:
    """True iff Z >= Lambda-projection of the right envelope, everywhere."""
    if fault := reward_fault(lattice, meyer, process):
        raise LatticeError(fault)
    right = envelope(lattice, process, Side.RIGHT)
    projected = project(lattice, meyer, right, Kind.LAMBDA)
    for idx in range(lattice.n_instants):
        for p in range(lattice.n_paths):
            if process.columns[idx][p] < projected.columns[idx][p]:
                return UscVerdict(ok=False, witness=(p, lattice.instant_at(idx)))
    return UscVerdict(ok=True, witness=None)


def is_left_usc_in_expectation(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
) -> UscVerdict:
    """True iff the predictable projection dominates the left envelope.

    Left jumps can only happen at grid points after epoch 0, so the scan
    runs over AT instants with k >= 1; the terminal clause requires the
    last interval slice to vanish (no reward may escape to TERMINAL).
    """
    if fault := reward_fault(lattice, meyer, process):
        raise LatticeError(fault)
    left = envelope(lattice, process, Side.LEFT)
    projected = project(lattice, meyer, process, Kind.PREDICTABLE)
    for idx in range(2, lattice.n_instants, 2):
        for p in range(lattice.n_paths):
            if projected.columns[idx][p] < left.columns[idx][p]:
                return UscVerdict(ok=False, witness=(p, lattice.instant_at(idx)))
    for p, v in enumerate(process.columns[lattice.n_instants - 1]):
        if v != 0:
            return UscVerdict(ok=False, witness=(p, TERMINAL))
    return UscVerdict(ok=True, witness=None)


def approximating_witness(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    T: RandomInstant,
    side: Side,
) -> RandomInstant:
    """The one-step stopping time realizing the one-sided envelope at T.

    RIGHT needs an optional T and returns the interval instant of T's epoch
    (strictly after T at grid points); LEFT needs a predictable T away from
    epoch 0 and returns the previous interval.  On a finite chain the
    approximating sequence stabilizes after this single step.
    """
    n = lattice.n_instants
    if side is Side.RIGHT:
        if not is_lambda_stopping_time(lattice, meyer, T, Kind.OPTIONAL):
            raise LatticeError("RIGHT witness needs an optional stopping time")
        # the interval of T's epoch; TERMINAL (even) stays put
        witness = RandomInstant(tuple(min(i | 1, n) for i in T.indices), n)
    else:
        if not is_lambda_stopping_time(lattice, meyer, T, Kind.PREDICTABLE):
            raise LatticeError("LEFT witness needs a predictable stopping time")
        if 0 in T.indices:
            raise LatticeError("LEFT witness needs T after epoch 0")
        # the interval before a grid point or TERMINAL, which are even
        witness = RandomInstant(tuple(i if i % 2 else i - 1 for i in T.indices), n)
    env = envelope(lattice, process, side)
    realized = witness.value_of(process)
    target = T.value_of(env)
    if realized != target:
        raise InvariantError("witness failed to realize the envelope")
    return witness


class EquivalenceReport(NamedTuple):
    right_predicate: bool
    right_sequential: bool
    left_predicate: bool
    left_sequential: bool
    counterexample: str | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def check_usc_sequence_equivalence(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
) -> EquivalenceReport:
    """Decide the sequential USC forms and compare them with the predicates.

    The right form (E[Z_T; A] >= E[(right envelope)_T; A] for every
    Lambda-stopping time T and atom A of the Lambda field at T) is decided
    per (instant u, Lambda atom A at u): {T = u} is a union of atoms at u,
    as the Lambda fields increase along the chain, and `field_at_time`
    splits it by them; the constant time u reaches every atom at u; at
    TERMINAL both readings are the reward's terminal value, 0.  The left
    form (E[Z_T] >= E[(left envelope)_T] for every predictable T) fails
    exactly when the maximum of E[(left envelope - Z)_T] is positive, one
    fold at any size.  A disagreement with the predicates is a
    counterexample, and only then is a witness built: one walk to the first
    time that attains the maximum.  The predicates come first, as they test
    the process as a reward; `reward_fault` walks it once.
    """
    right_pred = is_right_usc_in_expectation(lattice, meyer, process).ok
    left_pred = is_left_usc_in_expectation(lattice, meyer, process).ok
    probs = lattice.probabilities
    n = lattice.n_instants

    right_env = envelope(lattice, process, Side.RIGHT)
    right_where = next(
        (
            (RandomInstant((i,) * lattice.n_paths, n), sorted(atom))
            for i, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA))
            for atom in part
            if sum(probs[p] * (process.columns[i][p] - right_env.columns[i][p]) for p in atom) < 0
        ),
        None,
    )
    right_seq = right_where is None

    left_env = envelope(lattice, process, Side.LEFT)
    gap = LatticeProcess(
        tuple(
            tuple(a - z for a, z in zip(left, reward))
            for left, reward in zip(left_env.columns, process.columns)
        )
    )
    worst = _maximum(lattice, meyer, gap, Kind.PREDICTABLE, None)
    left_seq = worst.value <= 0

    counterexample = None
    if right_pred != right_seq:
        counterexample = (
            f"right-USC predicate {right_pred} but sequential form {right_seq}"
            f" (at {right_where})"
        )
    elif left_pred != left_seq:
        left_where = None if left_seq else RandomInstant(next(worst.maximizers()), n)
        counterexample = (
            f"left-USC predicate {left_pred} but sequential form {left_seq}"
            f" (at {left_where})"
        )
    return EquivalenceReport(
        right_predicate=right_pred,
        right_sequential=right_seq,
        left_predicate=left_pred,
        left_sequential=left_seq,
        counterexample=counterexample,
    )


class FatouReport(NamedTuple):
    """Counts are the (path, instant) cells at which each chain was checked."""

    optional_checked: int
    predictable_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_projection_fatou(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
) -> FatouReport:
    """Projection/limit interchange chains at every stopping time.

    For optional T:     opt(Z_*) <= (lam Z)_* <= (lam Z)^* <= opt(Z^*) at T,
    for predictable T:  pred(_*Z) <= _*(lam Z) <= ^*(lam Z) <= pred(^*Z) at T
    (checked away from epoch 0, where the left limit is the value itself,
    and away from TERMINAL, where both sides reduce to the same conditional
    average).  Each term at T reads one cell per path, and every cell is
    hit by a constant time, which is both optional and predictable; so the
    chains are checked once per (path, instant) cell.  One envelope serves
    as both the liminf and the limsup, so each chain has two distinct terms,
    its outer and its inner pair.  On a finite chain those are one conditional
    expectation computed two ways, so the row checks the code (the field table,
    `project`, `envelope`) and fails only where one of the two moves.  The raw
    input may be non-measurable but must vanish at TERMINAL.
    """
    if any(t != 0 for t in process.columns[-1]):
        raise LatticeError("raw process must vanish at TERMINAL")
    lam = project(lattice, meyer, process, Kind.LAMBDA)
    violations: list[str] = []
    checked = []
    for name, side, kind, first in (
        ("optional", Side.RIGHT, Kind.OPTIONAL, 0),
        ("predictable", Side.LEFT, Kind.PREDICTABLE, 1),
    ):
        outer = project(lattice, meyer, envelope(lattice, process, side), kind)
        inner = envelope(lattice, lam, side)
        for i in range(first, lattice.n_instants):
            for p in range(lattice.n_paths):
                lo, mid = outer.columns[i][p], inner.columns[i][p]
                # lo <= mid <= mid <= lo holds exactly when lo == mid
                if lo != mid:
                    violations.append(
                        f"{name} chain fails at path {p}, T={lattice.instant_at(i)}: "
                        + " / ".join(str(t) for t in (lo, mid, mid, lo))
                    )
        checked.append((lattice.n_instants - first) * lattice.n_paths)
    return FatouReport(
        optional_checked=checked[0],
        predictable_checked=checked[1],
        violations=tuple(violations),
    )
