"""Snell envelopes, compensator decomposition, and optimal divided stops.

The envelope is a backward recursion over the instant chain; everything it
claims is verified against `snell_brute_force`, which maximizes E[Z_T] over
every Lambda-stopping time by one fold over per-part stopping decisions in
integers: the same recursion, coded without conditional expectations.  The
decomposition splits the envelope's supermartingale losses into a
predictable part A (jumps into grid points, plus a final jump at TERMINAL
when the last interval value is positive) and an on-time part B (jumps at
grid points); both drive the second optimal stop construction.  It checks
its input through its own jumps and leaves its output to the suite's
mertens/identities row.

Every stop here (the lambda-entry times, the delta touch time, the sigma
compensator time, the smallest and largest optimal times) is the debut
after S of a set of (path, instant) cells, found by the one index scan
`lattice._first_hits`; a `RandomInstant` holds the hit index per path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

from .enumeration import DEFAULT_GUARD, _between, _check_guard, _maximum, _ranked
from .enumeration import iter_stopping_index_tuples
from .lattice import (
    DividedQuadruple,
    FilteredLattice,
    Kind,
    LatticeError,
    LatticeProcess,
    MeyerStructure,
    RandomInstant,
    _canonical_quadruple,
    _first_hits,
    conditional_expectation,
    field_partitions,
    is_lambda_stopping_time,
    is_measurable,
    reward_fault,
    to_divided_quadruple,
)
from .projection import is_left_usc_in_expectation, is_right_usc_in_expectation


def expected_value(lattice: FilteredLattice, rv) -> Fraction:
    return sum(
        (p.probability * v for p, v in zip(lattice.paths, rv)), Fraction(0)
    )


def snell_envelope(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
) -> LatticeProcess:
    """Smallest supermartingale dominating the reward, by backward recursion.

    At the last interval the envelope is max(Z, 0); at a grid point the
    continuation is conditioned on G_k, inside an interval on F_k.
    """
    if fault := reward_fault(lattice, meyer, process):
        raise LatticeError(fault)
    n = lattice.n_instants
    fields = field_partitions(lattice, meyer, Kind.LAMBDA)
    # the envelope is 0 at TERMINAL, where the reward vanishes
    columns = [(Fraction(0),) * lattice.n_paths] * (n + 1)
    for idx in range(n - 1, -1, -1):
        cont = conditional_expectation(lattice, columns[idx + 1], fields[idx])
        columns[idx] = tuple(max(z, c) for z, c in zip(process.columns[idx], cont))
    return LatticeProcess(tuple(columns))


@dataclass(frozen=True)
class BruteForceResult:
    """The optimizers are built from `maximizers` on first read."""

    value: Fraction
    stopping_time_count: int
    optimizer_count: int
    maximizers: Callable[[], list[RandomInstant]] = field(repr=False, compare=False)

    @cached_property
    def optimizers(self) -> tuple[RandomInstant, ...]:
        return tuple(self.maximizers())


def snell_brute_force(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    guard: int | None = DEFAULT_GUARD,
) -> BruteForceResult:
    """Maximize E[Z_T] over every Lambda-stopping time, exactly.

    The maximum is `enumeration`'s per-part fold, the envelope's backward
    recursion coded in integers; the optimizers are the stopping times that
    attain it, and the count is the number of Lambda-stopping times.  The
    value and both counts are read at any size.  The guard bounds only the
    listing of the optimizers: reading `optimizers` raises
    EnumerationGuardError when there are more of them than the guard.
    """
    if fault := reward_fault(lattice, meyer, process):
        raise LatticeError(fault)
    opt = _maximum(lattice, meyer, process, Kind.LAMBDA, None)

    def optimizers() -> list[RandomInstant]:
        _check_guard(opt.ways, guard)
        return [RandomInstant(t, lattice.n_instants) for t in sorted(opt.maximizers())]

    return BruteForceResult(
        value=opt.value,
        stopping_time_count=opt.total,
        optimizer_count=opt.ways,
        maximizers=optimizers,
    )


def is_lambda_supermartingale(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
) -> bool:
    """Each instant value dominates its conditional continuation, including
    the step into TERMINAL."""
    breaks = _first_breaks(lattice, meyer, process, lambda here, cont: here < cont)
    return all(i == lattice.n_instants for i in breaks)


def is_lambda_martingale(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
) -> bool:
    return all(i == lattice.n_instants for i in martingale_reach(lattice, meyer, process))


def martingale_reach(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    zbar: LatticeProcess,
) -> tuple[int, ...]:
    """Per path, the first instant index whose Lambda-atom has
    Zbar != E[Zbar next | atom], or n_instants if there is none.

    For a Lambda-stopping time U, the stopped process Zbar^U is a
    Lambda-martingale iff U <= reach on every path: each atom before U lies
    in {U > i}, where Zbar^U moves like Zbar, because the Lambda fields
    increase along the chain; atoms inside {U <= i} are frozen.
    """
    return _first_breaks(lattice, meyer, zbar, lambda here, cont: here != cont)


def _first_breaks(lattice, meyer, process, broken) -> tuple[int, ...]:
    """Per path, the first instant index where `broken(value, continuation)`."""
    if not is_measurable(lattice, meyer, process, Kind.LAMBDA):
        raise LatticeError("process is not Lambda-measurable")
    columns, conts = process.columns, _continuations(lattice, meyer, process)
    return _first_hits(
        lattice, (0,) * lattice.n_paths, lambda p, i: broken(columns[i][p], conts[i][p])
    )


def _continuations(lattice, meyer, process) -> list[tuple[Fraction, ...]]:
    """Per instant index i, E[process at i + 1 | Lambda field at i]."""
    columns = process.columns
    return [
        conditional_expectation(lattice, columns[idx + 1], part)
        for idx, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA))
    ]


@dataclass(frozen=True)
class MertensDecomposition:
    """Envelope = M - A - B_shifted, with per-epoch jump slices retained.

    `delta_a[k]` and `delta_b[k]` are the per-path jumps at (k, AT);
    `a_terminal_jump` is the extra predictable jump at TERMINAL equal to
    the last interval value of the envelope.  `b_shifted` is the left-limit
    reading of B (value at the predecessor instant).
    """

    m: LatticeProcess
    a: LatticeProcess
    b: LatticeProcess
    b_shifted: LatticeProcess
    delta_a: tuple[tuple[Fraction, ...], ...]
    delta_b: tuple[tuple[Fraction, ...], ...]
    a_terminal_jump: tuple[Fraction, ...]


def mertens_decompose(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    zbar: LatticeProcess,
) -> MertensDecomposition:
    """Split a nonnegative supermartingale with terminal 0 into M - A - B_-.

    Each jump is a one-step loss Zbar_i - E[Zbar_{i+1} | Lambda field at i],
    read from the continuations `martingale_reach` reads.  That field is G_k
    at (k,AT) and F_{k-1} at (k-1,INT), so per grid point:
        delta B at (k,AT) = Zbar at (k,AT)    - E[Zbar at (k,INT) | G_k]
        delta A at (k,AT) = Zbar at (k-1,INT) - E[Zbar at (k,AT) | F_{k-1}]
    with delta A at (0,AT) = 0; the loss into TERMINAL, where Zbar is 0, is
    A's final predictable jump, Zbar at (K,INT).  M = Zbar + A + B_- is then
    a Lambda-martingale.

    A Lambda-measurable input that is nonnegative with terminal 0 is a
    supermartingale exactly when no loss is negative; the jumps check that
    epoch by epoch, B before A, and LatticeError means it fails.  The
    result is not re-verified here: the suite's mertens/identities row
    checks it.
    """
    if reward_fault(lattice, meyer, zbar) is not None:
        if not is_measurable(lattice, meyer, zbar, Kind.LAMBDA):
            raise LatticeError("process is not Lambda-measurable")
        raise LatticeError("decomposition expects a nonnegative input with terminal 0")
    z = zbar.columns
    zero = (Fraction(0),) * lattice.n_paths
    loss = [
        tuple(v - c for v, c in zip(here, cont))
        for here, cont in zip(z, _continuations(lattice, meyer, zbar))
    ]
    delta_b, delta_a, a_terminal_jump = loss[0::2], [zero, *loss[1:-1:2]], loss[-1]
    for db, da in zip(delta_b, delta_a):
        for name, jump in (("B", db), ("A", da)):
            if any(v < 0 for v in jump):
                raise LatticeError(
                    f"negative {name}-jump: input violates the supermartingale property"
                )

    # AT instant: A includes its jump, the B_- reading does not
    cum_a = cum_b = zero
    a_cols, b_cols, bs_cols = [], [], []
    for da, db in zip(delta_a, delta_b):
        before_b = cum_b
        cum_a = tuple(x + y for x, y in zip(cum_a, da))
        cum_b = tuple(x + y for x, y in zip(cum_b, db))
        a_cols += [cum_a, cum_a]
        b_cols += [cum_b, cum_b]
        bs_cols += [before_b, cum_b]
    a = LatticeProcess((*a_cols, tuple(x + y for x, y in zip(cum_a, a_terminal_jump))))
    b = LatticeProcess((*b_cols, cum_b))
    b_shifted = LatticeProcess((*bs_cols, cum_b))
    # M = Zbar + A + B_-, at TERMINAL too, where Zbar is 0
    m = LatticeProcess(
        tuple(
            tuple(v + x + y for v, x, y in zip(zc, ac, bc))
            for zc, ac, bc in zip(z, a.columns, b_shifted.columns)
        )
    )
    return MertensDecomposition(
        m=m,
        a=a,
        b=b,
        b_shifted=b_shifted,
        delta_a=tuple(delta_a),
        delta_b=tuple(delta_b),
        a_terminal_jump=a_terminal_jump,
    )


def lambda_entry_time(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    zbar: LatticeProcess,
    lam: Fraction,
    S: RandomInstant,
) -> RandomInstant:
    """First instant at or after S where lam * Zbar <= Z, per path."""
    if not (0 < lam < 1):
        raise LatticeError(f"lambda must lie in (0,1), got {lam}")
    env, reward = zbar.columns, process.columns
    hits = _first_hits(lattice, S.indices, lambda p, i: lam * env[i][p] <= reward[i][p])
    return RandomInstant(hits, lattice.n_instants)


@dataclass(frozen=True)
class DeltaStop:
    T: RandomInstant
    quadruple: DividedQuadruple


def delta_stop(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    S: RandomInstant,
    zbar: LatticeProcess | None = None,
) -> DeltaStop:
    """First instant at or after S where the envelope touches the reward.

    On a finite chain the lambda-entry times stabilize, so this is the
    stabilized limit directly; the touch always happens by the last
    interval, where the envelope equals the reward.
    """
    if zbar is None:
        zbar = snell_envelope(lattice, meyer, process)
    env, reward = zbar.columns, process.columns
    hits = _first_hits(lattice, S.indices, lambda p, i: env[i][p] == reward[i][p])
    T = RandomInstant(hits, lattice.n_instants)
    return DeltaStop(T=T, quadruple=to_divided_quadruple(lattice, meyer, T))


@dataclass(frozen=True)
class SigmaStop:
    T: RandomInstant
    quadruple: DividedQuadruple
    k_minus: frozenset[int]
    k_on: frozenset[int]
    k_plus: frozenset[int]


def sigma_stop(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    S: RandomInstant,
    zbar: LatticeProcess | None = None,
    decomp: MertensDecomposition | None = None,
) -> SigmaStop:
    """First time the compensators grow past their level at S.

    T is the first instant u >= S with A_u + B_u > A_S + B_{S-}; the
    terminal reading includes A's final jump.  K-sets follow the growth
    attribution: K_minus where A grew, K_on where only B grew, K_plus where
    nothing grew (possible only at TERMINAL, and relabeled into the on-time
    part so the quadruple stays a divided stopping time).
    """
    if zbar is None:
        zbar = snell_envelope(lattice, meyer, process)
    if decomp is None:
        decomp = mertens_decompose(lattice, meyer, zbar)
    a, b, bs = decomp.a, decomp.b, decomp.b_shifted
    # readings at S, TERMINAL included: nothing grows after a TERMINAL S
    a_at_s, b_minus_at_s = S.value_of(a), S.value_of(bs)
    base = [x + y for x, y in zip(a_at_s, b_minus_at_s)]
    hits = _first_hits(
        lattice, S.indices, lambda p, i: a.columns[i][p] + b.columns[i][p] > base[p]
    )
    T = RandomInstant(hits, lattice.n_instants)
    a_at_t, b_at_t = T.value_of(a), T.value_of(b)
    k_minus: set[int] = set()
    k_on: set[int] = set()
    k_plus: set[int] = set()
    w_on: set[int] = set()
    w_plus: set[int] = set()
    for p, i in enumerate(hits):
        if a_at_t[p] > a_at_s[p]:
            k_minus.add(p)
        elif b_at_t[p] > b_minus_at_s[p]:
            k_on.add(p)
            w_on.add(p)
        else:
            k_plus.add(p)
            # Def 2.37 (iii) forbids the just-after part at TERMINAL
            (w_on if i == lattice.n_instants else w_plus).add(p)

    quadruple = DividedQuadruple(
        T=T,
        w_minus=frozenset(k_minus),
        w=frozenset(w_on),
        w_plus=frozenset(w_plus),
    )
    return SigmaStop(
        T=T,
        quadruple=quadruple,
        k_minus=frozenset(k_minus),
        k_on=frozenset(k_on),
        k_plus=frozenset(k_plus),
    )


@dataclass(frozen=True)
class OptimalityCertificate:
    candidate: RandomInstant
    condition_i: bool
    condition_ii: bool

    @property
    def optimal(self) -> bool:
        return self.condition_i and self.condition_ii


def stopped_process(
    lattice: FilteredLattice, process: LatticeProcess, U: RandomInstant
) -> LatticeProcess:
    """The process frozen at U: at each instant u, TERMINAL included, its
    value at min(u, U)."""
    return LatticeProcess(
        tuple(
            tuple(process.columns[min(idx, stop)][p] for p, stop in enumerate(U.indices))
            for idx in range(lattice.n_instants + 1)
        )
    )


def check_optimality(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    U: RandomInstant,
    zbar: LatticeProcess | None = None,
) -> OptimalityCertificate:
    """Certificate: reward touches the envelope at U, and the stopped
    envelope stays a martingale (U within the envelope's martingale reach)."""
    if not is_lambda_stopping_time(lattice, meyer, U, Kind.LAMBDA):
        raise LatticeError("candidate is not a Lambda-stopping time")
    if zbar is None:
        zbar = snell_envelope(lattice, meyer, process)
    condition_i = U.value_of(process) == U.value_of(zbar)
    reach = martingale_reach(lattice, meyer, zbar)
    condition_ii = all(u <= r for u, r in zip(U.indices, reach))
    return OptimalityCertificate(
        candidate=U, condition_i=condition_i, condition_ii=condition_ii
    )


def enumerate_divided_stops(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    from_S: RandomInstant | None = None,
    guard: int | None = DEFAULT_GUARD,
) -> list[DividedQuadruple]:
    """All canonical divided stops at or after S, in canonical order.

    Canonical divided stops (empty just-before part) correspond exactly to
    Lambda-stopping times in instant form: grid stops sit in the on-time
    part and interval stops in the just-after part of their grid point.
    """
    return [
        _canonical_quadruple(lattice, idx)
        for idx in sorted(
            iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA, lower=from_S, guard=guard)
        )
    ]


class PreconditionError(ValueError):
    """A theorem-level precondition failed; the message names the predicate."""


@dataclass(frozen=True)
class SmallestLargest:
    """The optimizers are listed by `brute()`, within its guard, on first read."""

    smallest: RandomInstant
    largest: RandomInstant
    brute: Callable[[], BruteForceResult] = field(repr=False, compare=False)

    @cached_property
    def all_optimal(self) -> tuple[RandomInstant, ...]:
        return self.brute().optimizers


def smallest_largest_optimal(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
) -> SmallestLargest:
    """Entry times of {Z = Zbar} and of {M != Zbar}; optional structure and
    both semicontinuity predicates are required.

    Every optimal stopping time is sandwiched between the two pathwise; a
    ranked fold checks that at any size and names a time that escapes.  Only
    `all_optimal` lists, within `snell_brute_force`'s default guard.
    """
    return _smallest_largest(lattice, meyer, process)[0]


def _smallest_largest(lattice, meyer, process):
    """`smallest_largest_optimal`, with the envelope and decomposition it built."""
    if tuple(meyer.meyer_fields) != tuple(lattice.filtration):
        raise PreconditionError(
            "optional structure required: meyer fields must equal the filtration"
        )
    if not is_right_usc_in_expectation(lattice, meyer, process).ok:
        raise PreconditionError("is_right_usc_in_expectation failed")
    if not is_left_usc_in_expectation(lattice, meyer, process).ok:
        raise PreconditionError("is_left_usc_in_expectation failed")

    zbar = snell_envelope(lattice, meyer, process)
    decomp = mertens_decompose(lattice, meyer, zbar)

    zero = RandomInstant((0,) * lattice.n_paths, lattice.n_instants)
    smallest = delta_stop(lattice, meyer, process, zero, zbar).T

    m, env = decomp.m.columns, zbar.columns
    active = _first_hits(lattice, (0,) * lattice.n_paths, lambda p, i: m[i][p] != env[i][p])
    # An interval activation means the set is entered right after the grid
    # point, so the entry time is the grid point itself; n_instants is even.
    largest = RandomInstant(tuple(i - i % 2 for i in active), lattice.n_instants)

    if not all(
        check_optimality(lattice, meyer, process, U, zbar).optimal for U in (smallest, largest)
    ):
        raise LatticeError("entry-time candidates failed their optimality certificates")

    if escapee := _escapee(lattice, meyer, process, smallest, largest):
        raise LatticeError(f"{escapee} escapes the sandwich")
    brute = partial(snell_brute_force, lattice, meyer, process)
    return SmallestLargest(smallest=smallest, largest=largest, brute=brute), zbar, decomp


def _escapee(lattice, meyer, process, lower, upper) -> str | None:
    """An optimal time outside [lower, upper], named, or None: the ranked
    fold on the bracket's cells names one at any size."""
    _, outside = _ranked(lattice, meyer, process, _between(lattice, lower, upper))
    if outside is None:
        return None
    return f"optimal time {RandomInstant(outside, lattice.n_instants).assignment}"
