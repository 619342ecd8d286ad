"""Snell envelopes, compensator decomposition, and optimal divided stops.

The envelope is a backward recursion over the instant chain; everything it
claims is verified against `snell_brute_force`, which maximizes E[Z_T] over
every Lambda-stopping time by a memoized recursion over stopping decisions
that shares nothing with the envelope's conditional expectations.  The
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
from functools import cached_property
from typing import Callable

from .enumeration import DEFAULT_GUARD, _between, _maximum, iter_stopping_index_tuples
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
    zero = tuple(Fraction(0) for _ in range(lattice.n_paths))
    columns: list[tuple[Fraction, ...]] = [zero] * n
    nxt = zero  # continuation from TERMINAL, where the envelope is 0
    for idx in range(n - 1, -1, -1):
        cont = conditional_expectation(lattice, nxt, fields[idx])
        col = tuple(
            max(process.values[p][idx], cont[p]) for p in range(lattice.n_paths)
        )
        columns[idx] = col
        nxt = col
    values = tuple(
        tuple(columns[idx][p] for idx in range(n)) for p in range(lattice.n_paths)
    )
    return LatticeProcess(values=values, terminal=zero)


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

    The maximum comes from a recursion over (instant, active paths) states,
    independent of the envelope; the optimizers are every stopping time
    that attains it, and the count is the number of Lambda-stopping times.
    """
    if fault := reward_fault(lattice, meyer, process):
        raise LatticeError(fault)
    opt = _maximum(lattice, meyer, process, Kind.LAMBDA, None, guard)
    return BruteForceResult(
        value=opt.value,
        stopping_time_count=opt.total,
        optimizer_count=opt.ways,
        maximizers=lambda: [RandomInstant(t, lattice.n_instants) for t in opt.maximizers()],
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
    n = lattice.n_instants
    conts = [
        conditional_expectation(
            lattice, process.terminal if idx == n - 1 else process.slice_at(idx + 1), part
        )
        for idx, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA))
    ]
    return _first_hits(
        lattice,
        (0,) * lattice.n_paths,
        lambda p, i: broken(process.values[p][i], conts[i][p]),
    )


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

    Jump formulas, per grid point:
        delta A at (k,AT) = Zbar at (k-1,INT) - E[Zbar at (k,AT) | F_{k-1}]
        delta B at (k,AT) = Zbar at (k,AT)    - E[Zbar at (k,INT) | G_k]
    with delta A at (0,AT) = 0 and a final predictable jump of A at TERMINAL
    equal to Zbar at (K,INT).  M = Zbar + A + B_- is then a Lambda-martingale.

    For a Lambda-measurable input that is nonnegative with terminal 0, the
    supermartingale inequality at (k,AT) is delta B >= 0, at (k,INT) it is
    delta A at k+1 >= 0, and at (K,INT) it is nonnegativity; so the jumps
    check the input, and LatticeError means it is not such a
    supermartingale.  The result is not re-verified here: the suite's
    mertens/identities row checks it.
    """
    if reward_fault(lattice, meyer, zbar) is not None:
        if not is_measurable(lattice, meyer, zbar, Kind.LAMBDA):
            raise LatticeError("process is not Lambda-measurable")
        raise LatticeError("decomposition expects a nonnegative input with terminal 0")
    n_paths = lattice.n_paths
    K = lattice.epoch_count

    delta_a: list[tuple[Fraction, ...]] = []
    delta_b: list[tuple[Fraction, ...]] = []
    for k in range(K + 1):
        at_idx = 2 * k
        int_idx = at_idx + 1
        g_k = meyer.meyer_fields[k]
        cont_b = conditional_expectation(lattice, zbar.slice_at(int_idx), g_k)
        db = tuple(zbar.values[p][at_idx] - cont_b[p] for p in range(n_paths))
        if any(v < 0 for v in db):
            raise LatticeError("negative B-jump: input violates the supermartingale property")
        delta_b.append(db)
        if k == 0:
            delta_a.append(tuple(Fraction(0) for _ in range(n_paths)))
        else:
            f_prev = lattice.filtration[k - 1]
            pred = conditional_expectation(lattice, zbar.slice_at(at_idx), f_prev)
            da = tuple(
                zbar.values[p][at_idx - 1] - pred[p] for p in range(n_paths)
            )
            if any(v < 0 for v in da):
                raise LatticeError(
                    "negative A-jump: input violates the supermartingale property"
                )
            delta_a.append(da)

    a_terminal_jump = zbar.slice_at(lattice.n_instants - 1)

    a_rows, b_rows, bs_rows, m_rows = [], [], [], []
    a_term, b_term, m_term = [], [], []
    for p in range(n_paths):
        cum_a = Fraction(0)
        cum_b = Fraction(0)
        a_row, b_row, bs_row, m_row = [], [], [], []
        for k in range(K + 1):
            before_b = cum_b
            cum_a += delta_a[k][p]
            cum_b += delta_b[k][p]
            # AT instant: A includes its jump, the B_- reading does not.
            a_row.extend((cum_a, cum_a))
            b_row.extend((cum_b, cum_b))
            bs_row.extend((before_b, cum_b))
            at_idx = 2 * k
            m_row.append(zbar.values[p][at_idx] + cum_a + before_b)
            m_row.append(zbar.values[p][at_idx + 1] + cum_a + cum_b)
        a_inf = cum_a + a_terminal_jump[p]
        a_term.append(a_inf)
        b_term.append(cum_b)
        m_term.append(a_inf + cum_b)
        a_rows.append(tuple(a_row))
        b_rows.append(tuple(b_row))
        bs_rows.append(tuple(bs_row))
        m_rows.append(tuple(m_row))

    return MertensDecomposition(
        m=LatticeProcess(values=tuple(m_rows), terminal=tuple(m_term)),
        a=LatticeProcess(values=tuple(a_rows), terminal=tuple(a_term)),
        b=LatticeProcess(values=tuple(b_rows), terminal=tuple(b_term)),
        b_shifted=LatticeProcess(values=tuple(bs_rows), terminal=tuple(b_term)),
        delta_a=tuple(delta_a),
        delta_b=tuple(delta_b),
        a_terminal_jump=tuple(a_terminal_jump),
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
    hits = _first_hits(
        lattice, S.indices, lambda p, i: lam * zbar.values[p][i] <= process.values[p][i]
    )
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
    hits = _first_hits(
        lattice, S.indices, lambda p, i: zbar.values[p][i] == process.values[p][i]
    )
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
        lattice, S.indices, lambda p, i: a.values[p][i] + b.values[p][i] > base[p]
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
    """The process frozen at U: value at min(u, U) per instant, U-value at TERMINAL."""
    n = lattice.n_instants
    rows = []
    term = []
    for p, stop in enumerate(U.indices):
        row = tuple(
            process.values[p][idx if idx <= stop else stop] for idx in range(n)
        )
        rows.append(row)
        term.append(process.terminal[p] if stop >= n else process.values[p][stop])
    return LatticeProcess(values=tuple(rows), terminal=tuple(term))


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
    """The optimizers are built from `brute` on first read."""

    smallest: RandomInstant
    largest: RandomInstant
    brute: BruteForceResult = field(repr=False, compare=False)

    @property
    def all_optimal(self) -> tuple[RandomInstant, ...]:
        return self.brute.optimizers


def smallest_largest_optimal(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    process: LatticeProcess,
    guard: int | None = DEFAULT_GUARD,
) -> SmallestLargest:
    """Entry times of {Z = Zbar} and of {M != Zbar}; optional structure and
    both semicontinuity predicates are required.

    Every optimal stopping time is sandwiched between the two pathwise.
    """
    return _smallest_largest(lattice, meyer, process, guard)[0]


def _smallest_largest(lattice, meyer, process, guard):
    """`smallest_largest_optimal`, with the envelope and decomposition it built."""
    from .projection import is_left_usc_in_expectation, is_right_usc_in_expectation

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

    active = _first_hits(
        lattice, (0,) * lattice.n_paths, lambda p, i: decomp.m.values[p][i] != zbar.values[p][i]
    )
    # An interval activation means the set is entered right after the grid
    # point, so the entry time is the grid point itself; n_instants is even.
    largest = RandomInstant(tuple(i - i % 2 for i in active), lattice.n_instants)

    if not all(
        check_optimality(lattice, meyer, process, U, zbar).optimal for U in (smallest, largest)
    ):
        raise LatticeError("entry-time candidates failed their optimality certificates")

    brute = snell_brute_force(lattice, meyer, process, guard)
    if (U := _escapee(lattice, meyer, process, brute, smallest, largest)) is not None:
        raise LatticeError(f"optimal time {U.assignment} escapes the sandwich")
    return SmallestLargest(smallest=smallest, largest=largest, brute=brute), zbar, decomp


def _escapee(lattice, meyer, process, brute, lower, upper) -> RandomInstant | None:
    """An optimal time outside [lower, upper], or None: every optimal time
    lies inside exactly when the fold restricted to the bracket attains the
    optimum as often as the unrestricted one does."""
    inside = _maximum(lattice, meyer, process, Kind.LAMBDA, _between(lattice, lower, upper), None)
    if inside.value == brute.value and inside.ways == brute.optimizer_count:
        return None
    return next(U for U in brute.optimizers if not lower <= U <= upper)
