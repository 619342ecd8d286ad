"""Snell envelopes, compensator decomposition, and optimal divided stops.

The envelope is a backward recursion over the Lambda atom tree in
integers, checked against `snell_brute_force`, one fold over the same
tree's stopping decisions: `snell/oracle` compares two loops on one tree.

The envelope's one-step losses Zbar_i - E[Zbar_{i+1} | Lambda field at i]
are one integer table over one denominator, `_losses`.  The martingale
reach is its first nonzero cell per path, and the supermartingale test
asks that no cell be negative.  The decomposition slices the same table
into the jumps of a predictable part A (jumps into grid points, plus a
final jump at TERMINAL when the last interval value is positive) and an
on-time part B (jumps at grid points), and A and B_- are its integer
running sums; both drive the second optimal stop construction.  It checks
its input through its own jumps and leaves its output to the suite's
mertens/identities row.

Every stop here (the lambda-entry times, the delta touch time, the sigma
compensator time, the smallest and largest optimal times) is the debut
after S of a set of (path, instant) cells, found by the one index scan
`lattice._first_hits`; a `RandomInstant` holds the hit index per path.
Each reads the envelope and decomposition its caller built and passes in;
nothing here builds either one for a stop or a certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

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
    _Record,
    _canonical_quadruple,
    _conditioned,
    _first_hits,
    _instant_fault,
    _node_columns,
    expected_value,  # re-exported: callers read it as `snell.expected_value`
    is_lambda_stopping_time,
    is_measurable,
    reward_fault,
    to_divided_quadruple,
)
from .projection import is_left_usc_in_expectation, is_right_usc_in_expectation


def snell_envelope(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
) -> LatticeProcess:
    """Smallest supermartingale dominating the reward, by backward recursion.

    At the last interval the envelope is max(Z, 0); at a grid point the
    continuation is conditioned on G_k, inside an interval on F_k.  On the
    Lambda atom tree, children first, a node of mass m holds the integer
    W = max(m * Z, its children's W) and the envelope W / m (0 at TERMINAL).
    """
    if fault := reward_fault(lattice, meyer, process):
        raise LatticeError(fault)
    tree, sums, den = _conditioned(lattice, meyer, Kind.LAMBDA, process.columns)
    held, kids = [0] * len(sums), tree.kids
    for j in range(len(held) - 1, -1, -1):
        held[j] = max(sums[j], sum(map(held.__getitem__, kids[j])))
    values = [Fraction(w, m * den) for w, m in zip(held, tree.mass)]
    return LatticeProcess(tuple(_node_columns(tree, values)))


class BruteForceResult(_Record, hidden=("maximizers",)):
    """The optimizers are built from `maximizers` on first read; a `_Record`,
    as it caches them and hides `maximizers` from ==, hash and repr."""

    def __init__(
        self,
        value: Fraction,
        stopping_time_count: int,
        optimizer_count: int,
        maximizers: Callable[[], list[RandomInstant]],
    ) -> None:
        self._store(value, stopping_time_count, optimizer_count, maximizers)

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
    """No one-step loss is negative, the step into TERMINAL included: each
    instant value dominates its conditional continuation."""
    breaks = _first_breaks(lattice, meyer, process, lambda loss: loss < 0)
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
    """Per path, the first instant index with a nonzero one-step loss, that
    is whose Lambda-atom has Zbar != E[Zbar next | atom], or n_instants if
    there is none.

    For a Lambda-stopping time U, the stopped process Zbar^U is a
    Lambda-martingale iff U <= reach on every path: each atom before U lies
    in {U > i}, where Zbar^U moves like Zbar, because the Lambda fields
    increase along the chain; atoms inside {U <= i} are frozen.
    """
    return _first_breaks(lattice, meyer, zbar, lambda loss: loss != 0)


def _first_breaks(lattice, meyer, process, broken) -> tuple[int, ...]:
    """Per path, the first instant index whose integer one-step loss is `broken`."""
    if not is_measurable(lattice, meyer, process, Kind.LAMBDA):
        raise LatticeError("process is not Lambda-measurable")
    _, losses, _ = _losses(lattice, meyer, process)
    return _first_hits(lattice, (0,) * lattice.n_paths, lambda p, i: broken(losses[i][p]))


def _losses(lattice, meyer, process) -> tuple[list[tuple], list[tuple], int]:
    """The process (TERMINAL included) and, per instant index i before
    TERMINAL, its one-step loss E[process_i - process_{i+1} | Lambda field
    at i], as integer tables over D = den * the lcm of the node masses: a
    node's sum, and its sum less its children's, times its cofactor.  Every
    caller has checked that the process is Lambda-measurable."""
    tree, sums, den = _conditioned(lattice, meyer, Kind.LAMBDA, process.columns)
    levels, losses = [], []
    for s, kids, c in zip(sums, tree.kids, tree.cofactor):
        levels.append(s * c)
        losses.append((s - sum(map(sums.__getitem__, kids))) * c)
    return _node_columns(tree, levels), _node_columns(tree, losses)[:-1], den * tree.unit


class MertensDecomposition(NamedTuple):
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

    The jumps are slices of the one-step loss table `_losses`, the table
    `martingale_reach` reads: the loss at instant index i is
    Zbar_i - E[Zbar_{i+1} | Lambda field at i].  That field is G_k at
    (k,AT) and F_{k-1} at (k-1,INT), so per grid point:
        delta B at (k,AT) = Zbar at (k,AT)    - E[Zbar at (k,INT) | G_k]
        delta A at (k,AT) = Zbar at (k-1,INT) - E[Zbar at (k,AT) | F_{k-1}]
    with delta A at (0,AT) = 0; the loss into TERMINAL, where Zbar is 0, is
    A's final predictable jump, Zbar at (K,INT).  The compensators are the
    table's integer running sums: A at instant index i sums the odd-index
    losses before i, B_- the even-index ones, and B is B_- one instant later
    (B_- itself at TERMINAL).  M = Zbar + A + B_- is then a Lambda-martingale.

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
    levels, loss, den = _losses(lattice, meyer, zbar)
    zero = (0,) * lattice.n_paths
    delta_b, delta_a, a_terminal_jump = loss[0::2], [zero, *loss[1:-1:2]], loss[-1]
    for db, da in zip(delta_b, delta_a):
        for name, jump in (("B", db), ("A", da)):
            if any(v < 0 for v in jump):
                raise LatticeError(
                    f"negative {name}-jump: input violates the supermartingale property"
                )

    # integer running sums, TERMINAL included: A at index i sums the
    # odd-index losses before i, B_- the even-index ones
    a, b_shifted = [zero], [zero]
    for j, jump in enumerate(loss):
        grows, holds = (a, b_shifted) if j % 2 else (b_shifted, a)
        grows.append(tuple(x + y for x, y in zip(grows[-1], jump)))
        holds.append(holds[-1])
    # M = Zbar + A + B_-, at TERMINAL too, where Zbar is 0
    m = [
        tuple(v + x + y for v, x, y in zip(zc, ac, bc))
        for zc, ac, bc in zip(levels, a, b_shifted)
    ]
    # one Fraction per distinct value
    tables = (m, a, b_shifted, delta_a, delta_b, [a_terminal_jump])
    over = {v: Fraction(v, den) for v in {v for table in tables for row in table for v in row}}
    m, a, bs, da, db, (jump,) = [tuple(tuple(map(over.__getitem__, r)) for r in t) for t in tables]
    return MertensDecomposition(
        m=LatticeProcess(m),
        a=LatticeProcess(a),
        b=LatticeProcess((*bs[1:], bs[-1])),
        b_shifted=LatticeProcess(bs),
        delta_a=da,
        delta_b=db,
        a_terminal_jump=jump,
    )


def lambda_entry_time(
    lattice: FilteredLattice,
    process: LatticeProcess,
    zbar: LatticeProcess,
    lam: Fraction,
    S: RandomInstant,
) -> RandomInstant:
    """First instant at or after S where lam * Zbar <= Z, per path, on the
    envelope `zbar` of `process`."""
    if not (0 < lam < 1):
        raise LatticeError(f"lambda must lie in (0,1), got {lam}")
    if fault := _instant_fault(lattice, S):
        raise LatticeError(fault)
    env, reward = zbar.columns, process.columns
    hits = _first_hits(lattice, S.indices, lambda p, i: lam * env[i][p] <= reward[i][p])
    return RandomInstant(hits, lattice.n_instants)


class DeltaStop(NamedTuple):
    T: RandomInstant
    quadruple: DividedQuadruple


def delta_stop(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    S: RandomInstant,
    zbar: LatticeProcess,
) -> DeltaStop:
    """First instant at or after S where the envelope `zbar` of `process`
    touches the reward.

    On a finite chain the lambda-entry times stabilize, so this is the
    stabilized limit directly; the touch always happens by the last
    interval, where the envelope equals the reward.
    """
    if fault := _instant_fault(lattice, S):
        raise LatticeError(fault)
    env, reward = zbar.columns, process.columns
    hits = _first_hits(lattice, S.indices, lambda p, i: env[i][p] == reward[i][p])
    T = RandomInstant(hits, lattice.n_instants)
    return DeltaStop(T=T, quadruple=to_divided_quadruple(lattice, meyer, T))


class SigmaStop(NamedTuple):
    T: RandomInstant
    quadruple: DividedQuadruple
    k_minus: frozenset[int]
    k_on: frozenset[int]
    k_plus: frozenset[int]


def sigma_stop(
    lattice: FilteredLattice,
    S: RandomInstant,
    decomp: MertensDecomposition,
) -> SigmaStop:
    """First time the compensators of the decomposition `decomp` grow past
    their level at S.

    T is the first instant u >= S with A_u + B_u > A_S + B_{S-}; the
    terminal reading includes A's final jump.  K-sets follow the growth
    attribution: K_minus where A grew, K_on where only B grew, K_plus where
    nothing grew.  A path is hit only where A + B grew past its level at
    S, so nothing grew only on a path with T at TERMINAL; Def 2.37 (iii)
    forbids the just-after part there, so K_plus joins the on-time part and
    the quadruple's `w_plus` is always empty.
    """
    if fault := _instant_fault(lattice, S):
        raise LatticeError(fault)
    a, b, bs = decomp.a, decomp.b, decomp.b_shifted
    # readings at S, TERMINAL included: nothing grows after a TERMINAL S
    a_at_s, b_minus_at_s = S.value_of(a), S.value_of(bs)
    base = [x + y for x, y in zip(a_at_s, b_minus_at_s)]
    hits = _first_hits(
        lattice, S.indices, lambda p, i: a.columns[i][p] + b.columns[i][p] > base[p]
    )
    T = RandomInstant(hits, lattice.n_instants)
    a_at_t, b_at_t = T.value_of(a), T.value_of(b)
    k_minus = frozenset(p for p, (x, y) in enumerate(zip(a_at_t, a_at_s)) if x > y)
    k_on = frozenset(p for p, (x, y) in enumerate(zip(b_at_t, b_minus_at_s)) if x > y) - k_minus
    k_plus = frozenset(range(lattice.n_paths)) - k_minus - k_on
    quadruple = DividedQuadruple(T=T, w_minus=k_minus, w=k_on | k_plus, w_plus=frozenset())
    return SigmaStop(T=T, quadruple=quadruple, k_minus=k_minus, k_on=k_on, k_plus=k_plus)


class OptimalityCertificate(NamedTuple):
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
    value at min(u, U); a LatticeError if U cannot read the process."""
    stops = U._reads(process)
    return LatticeProcess(
        tuple(
            tuple(process.columns[min(idx, stop)][p] for p, stop in enumerate(stops))
            for idx in range(lattice.n_instants + 1)
        )
    )


def check_optimality(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    U: RandomInstant,
    zbar: LatticeProcess,
) -> OptimalityCertificate:
    """Certificate: the reward touches its envelope `zbar` at U, and the
    stopped envelope stays a martingale (U within its martingale reach)."""
    if not is_lambda_stopping_time(lattice, meyer, U, Kind.LAMBDA):
        raise LatticeError("candidate is not a Lambda-stopping time")
    condition_i = U.value_of(process) == U.value_of(zbar)
    reach = martingale_reach(lattice, meyer, zbar)
    condition_ii = all(u <= r for u, r in zip(U.indices, reach))
    return OptimalityCertificate(
        candidate=U, condition_i=condition_i, condition_ii=condition_ii
    )


def enumerate_divided_stops(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    guard: int | None = DEFAULT_GUARD,
) -> list[DividedQuadruple]:
    """All canonical divided stops, in canonical order.

    Canonical divided stops (empty just-before part) correspond exactly to
    Lambda-stopping times in instant form: grid stops sit in the on-time
    part and interval stops in the just-after part of their grid point.
    """
    return [
        _canonical_quadruple(lattice, idx)
        for idx in sorted(iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA, guard))
    ]


class PreconditionError(ValueError):
    """A theorem-level precondition failed; the message names the predicate."""


class SmallestLargest(NamedTuple):
    smallest: RandomInstant
    largest: RandomInstant


def smallest_largest_optimal(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    zbar: LatticeProcess,
    decomp: MertensDecomposition,
) -> SmallestLargest:
    """Entry times of {Z = Zbar} and of {M != Zbar}, read off the envelope
    `zbar` of `process` and its decomposition `decomp`; optional structure, a
    reward and both semicontinuity predicates, which test it as one, are required.

    Every optimal stopping time is sandwiched between the two pathwise; a
    ranked fold checks that at any size and names a time that escapes.
    """
    if tuple(meyer.meyer_fields) != tuple(lattice.filtration):
        raise PreconditionError(
            "optional structure required: meyer fields must equal the filtration"
        )
    if not is_right_usc_in_expectation(lattice, meyer, process).ok:
        raise PreconditionError("is_right_usc_in_expectation failed")
    if not is_left_usc_in_expectation(lattice, meyer, process).ok:
        raise PreconditionError("is_left_usc_in_expectation failed")

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
    return SmallestLargest(smallest=smallest, largest=largest)


def _escapee(lattice, meyer, process, lower, upper) -> str | None:
    """An optimal time outside [lower, upper], named, or None: the ranked
    fold on the bracket's cells names one at any size."""
    _, outside = _ranked(lattice, meyer, process, _between(lattice, lower, upper))
    if outside is None:
        return None
    return f"optimal time {RandomInstant(outside, lattice.n_instants).assignment}"
