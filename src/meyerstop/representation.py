"""Reward representation by a running-supremum signal.

A reward X is represented by a signal L when, at every instant and atom,
X equals the conditional sum of g evaluated at the running supremum of L
against the measure mu from that instant on.  `forward_evaluate` computes
X from L; a `RepresentationProblem` keeps its X and one table (`_accrued`):
X read at an (instant, path) cell after the g-mass accrued before it is a
line in the level s.  `solve_representation` takes each atom's least
crossing of two such lines by Dinkelbach folds, `stopping_value` reads the
lines at a stop, and `universal_signal_check` certifies that the level-
passage stops of L solve every accrual-adjusted stopping problem at once.

g = a + b * ell**power with one odd power is affine in s = ell**power, and
s is increasing in ell, so running suprema, window roots and level passages
of L are those of S = L**power under the affine rates a + b*s.  The engine
works on S in exact rational arithmetic.  Level units appear only at the
edges: L read in and grid levels are raised to the power, and the solved L
is the real root of S (`_root`), a float only where S has no rational root.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .enumeration import _best, _Decisions, _mask
from .lattice import (
    DividedQuadruple,
    FilteredLattice,
    Kind,
    LatticeError,
    LatticeProcess,
    MeyerStructure,
    RandomInstant,
    _Record,
    _divided_readings,
    _first_hits,
    _require_shape,
    _weighted,
    conditional_expectation,
    expected_value,
    field_partitions,
    is_lambda_stopping_time,
    is_measurable,
    reward_fault,
    to_divided_quadruple,
    validate_divided,
)
from .snell import PreconditionError
from .projection import _left_usc, _right_usc


class RepresentationError(ValueError):
    """The reward admits no representation with the supplied (g, mu)."""


class GFamily(NamedTuple):
    """Per-(path, instant) strictly increasing reward rates
    g_u(ell) = a_u + b_u * ell**power, with rational intercepts `a`, positive
    rational slopes `b` and one odd `power` >= 1; power 1 is affine g."""

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[tuple[Fraction, ...], ...]
    power: int = 1

    @classmethod
    def affine(cls, a, b, power: int = 1) -> "GFamily":
        """g = a + b * ell**power: affine in ell**power."""
        a_rows = tuple(tuple(Fraction(v) for v in row) for row in a)
        b_rows = tuple(tuple(Fraction(v) for v in row) for row in b)
        _require_rates(b_rows, power)
        return cls(a=a_rows, b=b_rows, power=power)


def _require_rates(b=(), power=1, mass=()) -> None:
    """Positive slopes and one odd positive int power, so that each g is
    strictly increasing, and no negative mass (LatticeError otherwise)."""
    if any(v <= 0 for row in b for v in row):
        raise LatticeError("affine slopes must be strictly positive")
    if isinstance(power, bool) or not isinstance(power, int) or power < 1 or power % 2 == 0:
        raise LatticeError(f"g power must be an odd positive integer, got {power!r}")
    if any(v < 0 for row in mass for v in row):
        raise LatticeError("measure masses must be nonnegative")


def validate_g(lattice: FilteredLattice, meyer: MeyerStructure, g: GFamily) -> None:
    """Optional measurability: a and b are constant on each atom of every
    instant's optional field.  Positive slopes and an odd power make each g
    strictly increasing; `_require_rates` checks those."""
    _require_shape(lattice, g.a, "g.a")
    _require_shape(lattice, g.b, "g.b")
    for idx, part in enumerate(field_partitions(lattice, meyer, Kind.OPTIONAL)):
        for block in part:
            if len({(g.a[p][idx], g.b[p][idx]) for p in block}) > 1:
                raise LatticeError(
                    f"g slice at instant index {idx} is not optional-measurable"
                )


class RandomMeasure(NamedTuple):
    """Nonnegative mass per (path, instant); no mass at TERMINAL."""

    mass: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "RandomMeasure":
        mass = tuple(tuple(Fraction(v) for v in row) for row in rows)
        _require_rates(mass=mass)
        return cls(mass=mass)


class RepresentationProblem(_Record):
    """Bundle of (lattice, meyer, g, mu) plus exactly one of X or L; a `_Record`,
    as it checks that choice, every shape and every rate, and keeps its `reward` and `lines`."""

    def __init__(
        self,
        lattice: FilteredLattice,
        meyer: MeyerStructure,
        g: GFamily,
        mu: RandomMeasure,
        X: LatticeProcess | None = None,
        L: LatticeProcess | None = None,
    ) -> None:
        self._store(lattice, meyer, g, mu, X, L)
        self.__post_init__()

    def __post_init__(self) -> None:
        if (self.X is None) == (self.L is None):
            raise LatticeError("provide exactly one of X or L")
        name, process = ("X", self.X) if self.L is None else ("L", self.L)
        _require_shape(self.lattice, process, name)
        _require_shape(self.lattice, self.mu.mass, "mu")
        _require_shape(self.lattice, self.g.a, "g.a")
        _require_shape(self.lattice, self.g.b, "g.b")
        _require_rates(self.g.b, self.g.power, self.mu.mass)

    @cached_property
    def reward(self) -> LatticeProcess:
        """X as given, else forward(L), evaluated once."""
        return self.X if self.L is None else forward_evaluate(self)

    @cached_property
    def lines(self) -> tuple[list, list, int]:
        """Integer rows I = P * (`reward` + a-mass) and K = P * b-mass (`_accrued`), one
        `_weighted` table over D, and D: cell (i, p) is worth (I + s * K) / D at level s."""
        acc_a, acc_b = _accrued(self)
        I = [[x + v for x, v in zip(col, acc)] for col, acc in zip(self.reward.columns, acc_a)]
        rows, den = _weighted(self.lattice, I + acc_b)
        return rows[: len(I)], rows[len(I) :], den

    def with_L(self, L: LatticeProcess) -> "RepresentationProblem":
        return RepresentationProblem(self.lattice, self.meyer, self.g, self.mu, None, L)

    def with_X(self, X: LatticeProcess) -> "RepresentationProblem":
        return RepresentationProblem(self.lattice, self.meyer, self.g, self.mu, X, None)


def _levels(g: GFamily, L: LatticeProcess) -> LatticeProcess:
    """S = L**power, the signal in the units where g is affine."""
    return LatticeProcess(tuple(tuple(v**g.power for v in col) for col in L.columns))


def _root(s: Fraction, power: int):
    """The real `power`-th root of s, for odd `power`: an exact Fraction when
    s's numerator and denominator are perfect powers, else a float.  This is
    the one place the engine makes a float."""
    num, den = abs(s.numerator), s.denominator
    top, bottom = _integer_root(num, power), _integer_root(den, power)
    if top**power == num and bottom**power == den:
        return Fraction(top if s >= 0 else -top, bottom)
    root = float(abs(s)) ** (1 / power)
    return root if s > 0 else -root


def _integer_root(n: int, power: int) -> int:
    """The integer part of n ** (1 / power) for n >= 0, by Newton's method
    on integers from a start above the root."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // power)
    while (y := ((power - 1) * x + n // x ** (power - 1)) // power) < x:
        x = y
    return x


def forward_evaluate(problem: RepresentationProblem) -> LatticeProcess:
    """X from L: conditional remaining reward of the running supremum.

    At instant u and atom of the Lambda field, X is the probability-weighted
    atom average of sum_{w >= u} g_w(max of L over [u, w]) * mu_w; the
    terminal slice is zero.
    """
    L = problem.L
    if L is None:
        raise LatticeError("forward_evaluate needs the signal process L")
    if not is_measurable(problem.lattice, problem.meyer, L, Kind.LAMBDA):
        raise LatticeError("signal process is not Lambda-measurable")
    return _forward(problem, _levels(problem.g, L))


def _forward(problem: RepresentationProblem, S: LatticeProcess) -> LatticeProcess:
    """`forward_evaluate` on S = L**power: each instant's per-path tails, conditioned on its
    Lambda field; a tail is the a-mass from u on plus each b-mass step at S's running max."""
    lattice, meyer, n = problem.lattice, problem.meyer, problem.lattice.n_instants
    acc_a, acc_b = _accrued(problem)
    steps = [[after - before for before, after in zip(acc_b[w], acc_b[w + 1])] for w in range(n)]

    def tail(p: int, u: int) -> Fraction:
        """Path p's sum over w >= u of g_w(running max of S) mu_w."""
        running = S.columns[u][p]
        acc = acc_a[n][p] - acc_a[u][p]
        for w in range(u, n):
            running = max(running, S.columns[w][p])
            if step := steps[w][p]:
                acc += running * step
        return acc

    columns = [
        conditional_expectation(lattice, [tail(p, u) for p in range(lattice.n_paths)], part)
        for u, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA))
    ]
    return LatticeProcess((*columns, (Fraction(0),) * lattice.n_paths))


def _accrued(problem: RepresentationProblem) -> tuple[list, list]:
    """The accrual rule, without P: per instant index i (TERMINAL included)
    and path p, the a-mass sum_{w < i} a_w * mu_w and the b-mass
    sum_{w < i} b_w * mu_w.  At level s, X read at (i, p) after that accrual
    is worth X_i + a + s * b; `lines` and `stopping_value` weigh it by P."""
    lattice, g, mu = problem.lattice, problem.g, problem.mu
    acc_a, acc_b = [[Fraction(0)] * lattice.n_paths], [[Fraction(0)] * lattice.n_paths]
    for w in range(lattice.n_instants):
        for acc, rates in ((acc_a, g.a), (acc_b, g.b)):
            acc.append([v + m[w] * r[w] if m[w] else v for v, m, r in zip(acc[-1], mu.mass, rates)])
    return acc_a, acc_b


def solve_representation(problem: RepresentationProblem) -> LatticeProcess:
    """Recover a signal L from `problem.reward` by per-atom minimization of window roots.

    For each instant u and atom of the Lambda field, every stopping time T
    strictly after u on the atom contributes the root of

        E[ sum_{u <= w < T} g_w(ell) mu_w | atom ] = E[ X_u - X_T | atom ]

    and L_u is the minimum of those roots (TERMINAL included, with X_T = 0),
    found by Dinkelbach's method: each step is one fold over the times
    after u (`_least_root`): no time is listed, so no guard applies.  Windows
    carrying no mass are skipped; an atom whose remaining mass is exhausted
    takes L = 0 and must carry X = 0.  The roots are found and checked on
    S = L**power (`_solve`), and L is S's real root.
    """
    power = problem.g.power
    S = _solve(problem)
    return LatticeProcess(tuple(tuple(_root(s, power) for s in col) for col in S.columns))


def _solve(problem: RepresentationProblem) -> LatticeProcess:
    """`solve_representation` on S = L**power, where each window equation is
    affine in s, on the problem's `lines` table.  One decision tree of the
    Lambda-stopping times serves every atom: the times after u on an atom
    are its subtree at (u + 1, atom), as every node before u + 1 could only
    pass on.  The forward check of S against X runs at the end and failure
    raises RepresentationError."""
    lattice, meyer = problem.lattice, problem.meyer
    X = problem.reward
    if not is_measurable(lattice, meyer, X, Kind.LAMBDA):
        raise LatticeError("reward process is not Lambda-measurable")
    if any(t != 0 for t in X.columns[-1]):
        raise LatticeError("reward process must vanish at TERMINAL")
    n, n_paths = lattice.n_instants, lattice.n_paths
    fields = field_partitions(lattice, meyer, Kind.LAMBDA)
    I, K, _ = problem.lines
    steps = _Decisions(lattice, meyer, Kind.LAMBDA)

    columns: list[list] = [[None] * n_paths for _ in range(n)]
    for u in range(n):
        for block in fields[u]:
            num, den = _least_root(steps, I, K, u, block)
            if den == 0:
                if X.columns[u][min(block)] != 0:  # X is constant on the atom
                    raise RepresentationError(
                        "X not representable with this (g, mu): "
                        f"mass exhausted before instant index {u} but X is nonzero"
                    )
                num, den = 0, 1
            for p in block:
                columns[u][p] = Fraction(num, den)

    S = LatticeProcess((*map(tuple, columns), (Fraction(0),) * lattice.n_paths))
    if _forward(problem, S).columns != X.columns:
        raise RepresentationError("X not representable with this (g, mu): forward check failed")
    return S


def _least_root(steps: _Decisions, I, K, u: int, block) -> tuple[int, int]:
    """The least root N_T / D_T over the windows [u, T) with mass, by
    Dinkelbach's method; den 0 if no window has mass.

    A window's root is where the lines of stopping at u and at T cross on
    the atom's paths `block`: N_T sums I[u][p] - I[T_p][p] and D_T sums
    K[T_p][p] - K[u][p]; the times T are the tree's from (u + 1, block),
    and off-atom paths stay at TERMINAL and are skipped.  From the
    all-TERMINAL window, each step maximizes num * D_T - den * N_T by one
    fold, on gains of the atom's cells after u only, and moves to a
    maximizer, until the best gain is 0.  Any maximizer will do: each step
    lowers the ratio to a window's root, and the search ends where no root
    lies below.  A massless window can win a step only with N_T < 0, which
    no representable X has; the search stops there and the closing forward
    check fails.
    """
    n = steps.n_inst

    def window(T) -> tuple[int, int]:
        N = sum(I[u][p] - I[T[p]][p] for p in block)
        return N, sum(K[T[p]][p] - K[u][p] for p in block)

    def fold(num: int, den: int):
        # the best num * D_T - den * N_T: the best sum of cells num * K + den * I, less it at u
        gains = {i: {p: num * K[i][p] + den * I[i][p] for p in block} for i in range(u + 1, n + 1)}
        (top, _, _), attaining = _best(steps, gains, u + 1, _mask(block))
        return top - sum(num * K[u][p] + den * I[u][p] for p in block), attaining

    num, den = window((n,) * steps.n_paths)  # the all-TERMINAL window
    top, attaining = fold(num, den)
    while top > 0:
        N, D = window(next(attaining()))
        if D == 0:
            break
        num, den = N, D
        top, attaining = fold(num, den)
    return num, den


def _accrual_cutoffs(
    lattice: FilteredLattice, tau: RandomInstant | DividedQuadruple
) -> list[tuple[int, int]]:
    """Per path: (reading index, accrual cutoff index); n_instants codes TERMINAL.

    Accrual is over w strictly before the stop in instant order.  A grid
    stop excludes its own grid mass; a just-after stop includes the grid
    mass but not the interval mass; a just-before stop includes the
    previous interval mass.
    """
    if isinstance(tau, RandomInstant):
        return [(i, i) for i in tau.indices]
    reads = _divided_readings(lattice, tau)
    return [(r, r + 1 if p in tau.w_minus else r) for p, r in enumerate(reads)]


def stopping_value(
    problem: RepresentationProblem, ell, tau: RandomInstant | DividedQuadruple
):
    """E[X at tau + accrued g(ell)-mass strictly before tau]: one
    `expected_value` of each path's reading of `_accrued` at its cutoff.
    tau must be a Lambda- or divided stopping time (else LatticeError); X is
    the problem's `reward`, evaluated once per problem."""
    lattice, meyer = problem.lattice, problem.meyer
    if isinstance(tau, RandomInstant):
        if not is_lambda_stopping_time(lattice, meyer, tau, Kind.LAMBDA):
            raise LatticeError("tau is not a Lambda-stopping time")
    else:
        report = validate_divided(lattice, meyer, tau)
        if not report.ok:
            raise LatticeError("tau is not a divided stopping time: " + "; ".join(report.problems))
    X = problem.reward
    s, (acc_a, acc_b) = ell**problem.g.power, _accrued(problem)
    reading = [
        X.columns[read][p] + acc_a[cut][p] + s * acc_b[cut][p]
        for p, (read, cut) in enumerate(_accrual_cutoffs(lattice, tau))
    ]
    return expected_value(lattice, reading)


class LevelPassage(NamedTuple):
    T: RandomInstant
    quadruple: DividedQuadruple


def level_passage(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    L: LatticeProcess,
    ell,
    variant: int,
) -> LevelPassage:
    """First instant where the running supremum of L reaches (variant 1) or
    exceeds (variant 2) the level; suprema are attained on the lattice, so
    both variants are plain stopping times in quadruple form."""
    if variant not in (1, 2):
        raise LatticeError("variant must be 1 or 2")
    if not is_measurable(lattice, meyer, L, Kind.LAMBDA):
        raise LatticeError("signal process is not Lambda-measurable")
    T = RandomInstant(_passage(lattice, L, ell, variant), lattice.n_instants)
    return LevelPassage(T=T, quadruple=to_divided_quadruple(lattice, meyer, T))


def _passage(lattice: FilteredLattice, L: LatticeProcess, ell, variant: int) -> tuple[int, ...]:
    """The indices of `level_passage`, for a signal already checked."""
    # the running supremum of L first reaches the level where L itself does
    return _first_hits(
        lattice,
        (0,) * lattice.n_paths,
        lambda p, i: L.columns[i][p] >= ell if variant == 1 else L.columns[i][p] > ell,
    )


class SignalRow(NamedTuple):
    ell: Fraction
    value_variant_1: Fraction
    value_variant_2: Fraction
    brute_force: Fraction
    optimizer_count: int

    @property
    def ok(self) -> bool:
        return self.value_variant_1 == self.brute_force == self.value_variant_2


class SignalReport(NamedTuple):
    rows: tuple[SignalRow, ...]
    right_usc_holds: bool

    @property
    def ok(self) -> bool:
        return self.right_usc_holds and all(r.ok for r in self.rows)


def universal_signal_check(problem: RepresentationProblem, ell_grid: Sequence) -> SignalReport:
    """Level-passage stops of L attain every accrual-adjusted optimum.

    Requires the problem's `reward` X to be representable and left-USC in
    expectation (PreconditionError otherwise); verifies the implied
    right-USC, then compares both level-passage variants against the
    optimum over the canonical divided stops at each grid level, in grid
    order.  A canonical divided stop reads X, and cuts the accrual, at the
    index where its Lambda-stopping time stops each path, so at s = num / den
    a stop is worth the sum of its cells den * I + num * K of the problem's
    `lines`, over den * D.  The optimum and its optimizer count are then one
    `_best` fold per level over the Lambda decision tree, built once: no stop
    is listed, so no guard applies.  Passages are read on S = L**power at
    ell**power by `_passage`, unchecked: S is the given L's levels, Lambda-
    measurable as `forward_evaluate` checks L, or the solved one.
    """
    lattice, meyer, power = problem.lattice, problem.meyer, problem.g.power
    S = _solve(problem) if problem.L is None else _levels(problem.g, problem.L)
    X = problem.reward
    if fault := reward_fault(lattice, meyer, X):
        raise PreconditionError(f"X is not a reward: {fault}")
    if not _left_usc(lattice, meyer, X).ok:
        raise PreconditionError("is_left_usc_in_expectation failed for X")
    right_ok = _right_usc(lattice, meyer, X).ok
    I, K, D = problem.lines
    steps = _Decisions(lattice, meyer, Kind.LAMBDA)

    def evaluate(ell) -> SignalRow:
        s = ell**power
        num, den = Fraction(s).as_integer_ratio()
        gains = [[den * a + num * b for a, b in zip(i_row, k_row)] for i_row, k_row in zip(I, K)]
        passages = (enumerate(_passage(lattice, S, s, v)) for v in (1, 2))
        v1, v2 = (sum(gains[i][p] for p, i in cells) for cells in passages)
        (best, count, _), _ = _best(steps, gains, 0, steps.everyone)
        return SignalRow(ell, *(Fraction(v, den * D) for v in (v1, v2, best)), count)

    return SignalReport(rows=tuple(map(evaluate, ell_grid)), right_usc_holds=right_ok)
