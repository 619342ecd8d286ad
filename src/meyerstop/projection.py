"""Projections, one-sided envelopes, and semicontinuity predicates.

On the instant chain the limsup/liminf envelopes read single neighbouring
slices, so the SUP and INF variants coincide; both are kept in the
interface.  Semicontinuity in expectation reduces to exact pointwise
comparisons between a process and projections of its envelopes, and the
sequence-based definitions reduce to one-step witnesses, which is what the
equivalence checker exhausts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .enumeration import DEFAULT_GUARD, iter_stopping_index_tuples
from .lattice import (
    AT,
    INT,
    FilteredLattice,
    Instant,
    InvariantError,
    Kind,
    LatticeError,
    LatticeProcess,
    MeyerStructure,
    RandomInstant,
    TERMINAL,
    TimePoint,
    _Terminal,
    conditional_expectation,
    field_at_time,
    field_partitions,
    is_lambda_stopping_time,
    is_measurable,
)


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


class Mode(Enum):
    SUP = "sup"
    INF = "inf"


def project(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    kind: Kind,
) -> LatticeProcess:
    """Slice-wise conditional expectation onto the kind's per-instant fields.

    The terminal slice is left unchanged.
    """
    fields = field_partitions(lattice, meyer, kind)
    n_paths = lattice.n_paths
    columns = []
    for idx, part in enumerate(fields):
        columns.append(conditional_expectation(lattice, process.slice_at(idx), part))
    values = tuple(
        tuple(columns[idx][p] for idx in range(lattice.n_instants))
        for p in range(n_paths)
    )
    return LatticeProcess(values=values, terminal=process.terminal)


def envelope(
    lattice: FilteredLattice,
    process: LatticeProcess,
    side: Side,
    mode: Mode,
) -> LatticeProcess:
    """One-sided limit process.

    RIGHT reads the interval after a grid point (and the grid value is not
    consulted); LEFT reads the interval before it, with the epoch-0 grid
    point reading itself.  Interval instants read themselves on both sides.
    At TERMINAL, LEFT reads the last interval and RIGHT keeps the terminal
    value.  SUP and INF agree because each read is a single slice.
    """
    del mode  # single-valued reads; kept for interface fidelity
    n = lattice.n_instants
    rows = []
    terminal = []
    for p in range(lattice.n_paths):
        row = []
        for idx in range(n):
            u = lattice.instant_at(idx)
            if u.tag == INT:
                row.append(process.values[p][idx])
            elif side is Side.RIGHT:
                row.append(process.values[p][idx + 1])
            elif u.epoch == 0:
                row.append(process.values[p][idx])
            else:
                row.append(process.values[p][idx - 1])
        rows.append(tuple(row))
        terminal.append(
            process.values[p][n - 1] if side is Side.LEFT else process.terminal[p]
        )
    return LatticeProcess(values=tuple(rows), terminal=tuple(terminal))


@dataclass(frozen=True)
class UscVerdict:
    ok: bool
    witness: tuple[int, TimePoint] | None

    def __bool__(self) -> bool:
        return self.ok


def require_reward(
    lattice: FilteredLattice, meyer: MeyerStructure, process: LatticeProcess
) -> None:
    if not is_measurable(lattice, meyer, process, Kind.LAMBDA):
        raise LatticeError("process is not Lambda-measurable")
    if any(v < 0 for row in process.values for v in row):
        raise LatticeError("process must be nonnegative")
    if any(t != 0 for t in process.terminal):
        raise LatticeError("process must vanish at TERMINAL")


def is_right_usc_in_expectation(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
) -> UscVerdict:
    """True iff Z >= Lambda-projection of the right envelope, everywhere."""
    require_reward(lattice, meyer, process)
    right = envelope(lattice, process, Side.RIGHT, Mode.SUP)
    projected = project(lattice, meyer, right, Kind.LAMBDA)
    for idx in range(lattice.n_instants):
        for p in range(lattice.n_paths):
            if process.values[p][idx] < projected.values[p][idx]:
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
    require_reward(lattice, meyer, process)
    left = envelope(lattice, process, Side.LEFT, Mode.SUP)
    projected = project(lattice, meyer, process, Kind.PREDICTABLE)
    for k in range(1, lattice.epoch_count + 1):
        idx = Instant(k, AT).index
        for p in range(lattice.n_paths):
            if projected.values[p][idx] < left.values[p][idx]:
                return UscVerdict(ok=False, witness=(p, Instant(k, AT)))
    last = lattice.n_instants - 1
    for p in range(lattice.n_paths):
        if process.values[p][last] != 0:
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
    if side is Side.RIGHT:
        if not is_lambda_stopping_time(lattice, meyer, T, Kind.OPTIONAL):
            raise LatticeError("RIGHT witness needs an optional stopping time")
        out: list[TimePoint] = []
        for u in T.assignment:
            if isinstance(u, _Terminal):
                out.append(TERMINAL)
            else:
                out.append(Instant(u.epoch, INT))
        witness = RandomInstant(assignment=tuple(out))
        env = envelope(lattice, process, Side.RIGHT, Mode.SUP)
    else:
        if not is_lambda_stopping_time(lattice, meyer, T, Kind.PREDICTABLE):
            raise LatticeError("LEFT witness needs a predictable stopping time")
        if any(u == Instant(0, AT) for u in T.assignment):
            raise LatticeError("LEFT witness needs T after epoch 0")
        out = []
        for u in T.assignment:
            if isinstance(u, _Terminal):
                out.append(Instant(lattice.epoch_count, INT))
            elif u.tag == INT:
                out.append(u)
            else:
                out.append(Instant(u.epoch - 1, INT))
        witness = RandomInstant(assignment=tuple(out))
        env = envelope(lattice, process, Side.LEFT, Mode.SUP)
    realized = witness.value_of(process)
    target = T.value_of(env)
    if realized != target:
        raise InvariantError("witness failed to realize the envelope")
    return witness


@dataclass(frozen=True)
class EquivalenceReport:
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
    guard: int | None = DEFAULT_GUARD,
) -> EquivalenceReport:
    """Exhaust one-step monotone families and compare with the predicates.

    The sequential right form quantifies over every Lambda-stopping time and
    every atom of its field; the sequential left form quantifies over every
    predictable stopping time.  A disagreement with the projection
    predicates is a counterexample (none is expected; one fails the build).
    """
    require_reward(lattice, meyer, process)
    probs = lattice.probabilities

    right_env = envelope(lattice, process, Side.RIGHT, Mode.SUP)
    right_seq = True
    right_where = None
    for idx in iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA, guard=guard):
        T = RandomInstant.from_indices(lattice, idx)
        for block in field_at_time(lattice, meyer, T, Kind.LAMBDA):
            on_time = sum(
                (probs[p] * process.at(p, T.assignment[p]) for p in block), Fraction(0)
            )
            after = sum(
                (probs[p] * right_env.at(p, T.assignment[p]) for p in block),
                Fraction(0),
            )
            if on_time < after:
                right_seq = False
                right_where = (T, sorted(block))
                break
        if not right_seq:
            break

    left_env = envelope(lattice, process, Side.LEFT, Mode.SUP)
    left_seq = True
    left_where = None
    for idx in iter_stopping_index_tuples(lattice, meyer, Kind.PREDICTABLE, guard=guard):
        T = RandomInstant.from_indices(lattice, idx)
        on_time = sum((c * v for c, v in zip(probs, T.value_of(process))), Fraction(0))
        announced = sum((c * v for c, v in zip(probs, T.value_of(left_env))), Fraction(0))
        if on_time < announced:
            left_seq = False
            left_where = T
            break

    right_pred = is_right_usc_in_expectation(lattice, meyer, process).ok
    left_pred = is_left_usc_in_expectation(lattice, meyer, process).ok

    counterexample = None
    if right_pred != right_seq:
        counterexample = (
            f"right-USC predicate {right_pred} but sequential form {right_seq}"
            f" (at {right_where})"
        )
    elif left_pred != left_seq:
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


@dataclass(frozen=True)
class FatouReport:
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
    chains are checked once per (path, instant) cell.  The raw input may be
    non-measurable but must vanish at TERMINAL.
    """
    if any(t != 0 for t in process.terminal):
        raise LatticeError("raw process must vanish at TERMINAL")
    lam = project(lattice, meyer, process, Kind.LAMBDA)
    violations: list[str] = []
    checked = []
    for name, side, kind, first in (
        ("optional", Side.RIGHT, Kind.OPTIONAL, 0),
        ("predictable", Side.LEFT, Kind.PREDICTABLE, Instant(0, AT).index + 1),
    ):
        chain = (
            project(lattice, meyer, envelope(lattice, process, side, Mode.INF), kind),
            envelope(lattice, lam, side, Mode.INF),
            envelope(lattice, lam, side, Mode.SUP),
            project(lattice, meyer, envelope(lattice, process, side, Mode.SUP), kind),
        )
        for i in range(first, lattice.n_instants):
            for p in range(lattice.n_paths):
                terms = [term.values[p][i] for term in chain]
                if not terms[0] <= terms[1] <= terms[2] <= terms[3]:
                    violations.append(
                        f"{name} chain fails at path {p}, T={lattice.instant_at(i)}: "
                        + " / ".join(str(t) for t in terms)
                    )
        checked.append((lattice.n_instants - first) * lattice.n_paths)
    return FatouReport(
        optional_checked=checked[0],
        predictable_checked=checked[1],
        violations=tuple(violations),
    )
