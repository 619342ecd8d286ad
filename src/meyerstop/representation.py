"""Reward representation by a running-supremum signal.

A reward X is represented by a signal L when, at every instant and atom,
X equals the conditional sum of g evaluated at the running supremum of L
against the measure mu from that instant on.  `forward_evaluate` computes
X from L, `solve_representation` recovers a signal from X by per-atom
root-finding over future stopping times, and `universal_signal_check`
certifies that the level-passage stops of L solve the whole family of
accrual-adjusted stopping problems at once.

Affine g runs in exact rational arithmetic; monotone g falls back to
bisection and floats inside the root-finder only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from typing import Callable, Sequence

from .enumeration import DEFAULT_GUARD, iter_stopping_index_tuples
from .lattice import (
    DividedQuadruple,
    FilteredLattice,
    Kind,
    LatticeError,
    LatticeProcess,
    MeyerStructure,
    RandomInstant,
    _divided_readings,
    _first_hits,
    _require_shape,
    field_partitions,
    is_lambda_stopping_time,
    is_measurable,
    to_divided_quadruple,
    validate_divided,
)
from .parallel import ordered_map
from .snell import PreconditionError, enumerate_divided_stops
from .projection import is_left_usc_in_expectation, is_right_usc_in_expectation

AFFINE = "affine"
MONOTONE = "monotone"

DEFAULT_ROOT_TOLERANCE = 1e-9
DEFAULT_VERIFY_TOLERANCE = 1e-7


class RepresentationError(ValueError):
    """The reward admits no representation with the supplied (g, mu)."""


@dataclass(frozen=True)
class GFamily:
    """Per-(path, instant) strictly increasing reward rates g_u(ell).

    AFFINE stores intercepts `a` and positive slopes `b` (g = a + b*ell,
    exact).  MONOTONE stores callables (strictly increasing, continuous,
    surjective) and works to `tolerance` inside the root-finder.
    """

    kind: str
    a: tuple[tuple[Fraction, ...], ...] | None = None
    b: tuple[tuple[Fraction, ...], ...] | None = None
    funcs: tuple[tuple[Callable[[float], float], ...], ...] | None = None
    tolerance: float = DEFAULT_ROOT_TOLERANCE

    @classmethod
    def affine(cls, a, b) -> "GFamily":
        a_rows = tuple(tuple(Fraction(v) for v in row) for row in a)
        b_rows = tuple(tuple(Fraction(v) for v in row) for row in b)
        if any(v <= 0 for row in b_rows for v in row):
            raise LatticeError("affine slopes must be strictly positive")
        return cls(kind=AFFINE, a=a_rows, b=b_rows)

    @classmethod
    def monotone(
        cls, funcs, tolerance: float = DEFAULT_ROOT_TOLERANCE
    ) -> "GFamily":
        if not 0 < tolerance < inf:
            raise LatticeError(f"root tolerance must be finite and positive, got {tolerance!r}")
        return cls(kind=MONOTONE, funcs=tuple(tuple(row) for row in funcs), tolerance=tolerance)

    def value(self, path: int, idx: int, ell):
        if self.kind == AFFINE:
            return self.a[path][idx] + self.b[path][idx] * ell
        return self.funcs[path][idx](float(ell))


def validate_g(
    lattice: FilteredLattice,
    meyer: MeyerStructure,
    g: GFamily,
    probe: Sequence[Fraction] = (Fraction(-2), Fraction(0), Fraction(1), Fraction(3)),
) -> None:
    """Strict monotonicity (exact for affine, spot-checked for monotone) and
    optional measurability of every instant slice."""
    fields = field_partitions(lattice, meyer, Kind.OPTIONAL)
    for idx, part in enumerate(fields):
        for block in part:
            for ell in probe:
                vals = {g.value(p, idx, ell) for p in block}
                if len(vals) > 1:
                    raise LatticeError(
                        f"g slice at instant index {idx} is not optional-measurable"
                    )
    if g.kind == MONOTONE:
        for p in range(lattice.n_paths):
            for idx in range(lattice.n_instants):
                vals = [g.value(p, idx, ell) for ell in sorted(probe)]
                if any(x >= y for x, y in zip(vals, vals[1:])):
                    raise LatticeError(
                        f"g at path {p}, instant index {idx} is not strictly increasing"
                    )


@dataclass(frozen=True)
class RandomMeasure:
    """Nonnegative mass per (path, instant); no mass at TERMINAL."""

    mass: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "RandomMeasure":
        mass = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if any(v < 0 for row in mass for v in row):
            raise LatticeError("measure masses must be nonnegative")
        return cls(mass=mass)


@dataclass(frozen=True)
class RepresentationProblem:
    """Bundle of (lattice, meyer, g, mu) plus exactly one of X or L."""

    lattice: FilteredLattice
    meyer: MeyerStructure
    g: GFamily
    mu: RandomMeasure
    X: LatticeProcess | None = None
    L: LatticeProcess | None = None

    def __post_init__(self) -> None:
        if (self.X is None) == (self.L is None):
            raise LatticeError("provide exactly one of X or L")
        name, process = ("X", self.X) if self.L is None else ("L", self.L)
        _require_shape(self.lattice, process, name)
        _require_shape(self.lattice, self.mu.mass, "mu")

    def with_L(self, L: LatticeProcess) -> "RepresentationProblem":
        return RepresentationProblem(self.lattice, self.meyer, self.g, self.mu, None, L)

    def with_X(self, X: LatticeProcess) -> "RepresentationProblem":
        return RepresentationProblem(self.lattice, self.meyer, self.g, self.mu, X, None)


def forward_evaluate(problem: RepresentationProblem) -> LatticeProcess:
    """X from L: conditional remaining reward of the running supremum.

    At instant u and atom of the Lambda field, X is the probability-weighted
    atom average of sum_{w >= u} g_w(max of L over [u, w]) * mu_w; the
    terminal slice is zero.
    """
    lattice, meyer, g, mu = problem.lattice, problem.meyer, problem.g, problem.mu
    L = problem.L
    if L is None:
        raise LatticeError("forward_evaluate needs the signal process L")
    if not is_measurable(lattice, meyer, L, Kind.LAMBDA):
        raise LatticeError("signal process is not Lambda-measurable")
    n = lattice.n_instants
    probs = lattice.probabilities

    def tail(p: int, u: int):
        """Path p's sum over w >= u of g_w(running max of L) mu_w."""
        running = L.columns[u][p]
        acc = None
        for w in range(u, n):
            if L.columns[w][p] > running:
                running = L.columns[w][p]
            if mu.mass[p][w] != 0:
                term = g.value(p, w, running) * mu.mass[p][w]
                acc = term if acc is None else acc + term
        return acc if acc is not None else Fraction(0)

    columns = []
    for u, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA)):
        col = [None] * lattice.n_paths
        for block in part:
            mass = sum((probs[p] for p in block), Fraction(0))
            avg = sum(probs[p] * tail(p, u) for p in block) / mass
            for p in block:
                col[p] = avg
        columns.append(tuple(col))
    return LatticeProcess((*columns, (Fraction(0),) * lattice.n_paths))


def g_root(terms: Sequence[tuple], target, tolerance: float | None = None):
    """Solve sum_w c_w * g_w(ell) = target for the unique ell.

    Affine terms are (weight, intercept, slope) triples and solve exactly;
    monotone terms are (weight, callable) pairs and bisect to `tolerance`
    after bracket expansion.  Weights must not all vanish.
    """
    if not terms:
        raise LatticeError("g_root needs at least one term")
    if len(terms[0]) == 3:
        total_b = sum((c * b for c, _a, b in terms), Fraction(0))
        if total_b == 0:
            raise LatticeError("g_root: zero total weight")
        total_a = sum((c * a for c, a, _b in terms), Fraction(0))
        return (Fraction(target) - total_a) / total_b
    tol = DEFAULT_ROOT_TOLERANCE if tolerance is None else tolerance
    weights = [float(c) for c, _f in terms]
    if sum(weights) == 0:
        raise LatticeError("g_root: zero total weight")
    funcs = [f for _c, f in terms]
    tgt = float(target)

    def h(ell: float) -> float:
        return sum(c * f(ell) for c, f in zip(weights, funcs)) - tgt

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if h(lo) <= 0:
            break
        lo *= 2
    for _ in range(200):
        if h(hi) >= 0:
            break
        hi *= 2
    if h(lo) > 0 or h(hi) < 0:
        raise LatticeError("g_root: failed to bracket the root")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if h(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def solve_representation(
    problem: RepresentationProblem,
    guard: int | None = DEFAULT_GUARD,
    verify_tolerance: float | None = None,
) -> LatticeProcess:
    """Recover a signal L from X by per-atom minimization of window roots.

    For each instant u and atom of the Lambda field, every stopping time T
    strictly after u on the atom contributes the root of

        E[ sum_{u <= w < T} g_w(ell) mu_w | atom ] = E[ X_u - X_T | atom ]

    and L_u is the minimum of those roots (TERMINAL included, with X_T = 0).
    Windows carrying no mass are skipped; an atom whose remaining mass is
    exhausted takes L = 0 and must carry X = 0.  The forward check runs at
    the end and failure raises RepresentationError.
    """
    lattice, meyer, g, mu = problem.lattice, problem.meyer, problem.g, problem.mu
    X = problem.X
    if X is None:
        raise LatticeError("solve_representation needs the reward process X")
    if not is_measurable(lattice, meyer, X, Kind.LAMBDA):
        raise LatticeError("reward process is not Lambda-measurable")
    if any(t != 0 for t in X.columns[-1]):
        raise LatticeError("reward process must vanish at TERMINAL")
    affine = g.kind == AFFINE
    n = lattice.n_instants
    probs = lattice.probabilities
    fields = field_partitions(lattice, meyer, Kind.LAMBDA)

    columns: list[list] = [[None] * lattice.n_paths for _ in range(n)]
    for u in range(n):
        for block in fields[u]:
            lower = RandomInstant(
                tuple(u + 1 if p in block else n for p in range(lattice.n_paths)), n
            )

            # Path p's share of the window [u, stop), per stop: its weighted X
            # at u and at the stop, and its g-terms.  Affine shares are
            # (here - there - sum c*a, sum c*b) over one common denominator.
            shares = {}
            for p in block:
                row = shares[p] = [None] * (n + 1)
                here = probs[p] * X.columns[u][p]
                acc_a, acc_b, terms = Fraction(0), Fraction(0), []
                for stop in range(u + 1, n + 1):
                    if (m := mu.mass[p][stop - 1]) != 0:
                        c, w = probs[p] * m, stop - 1
                        if affine:
                            acc_a, acc_b = acc_a + c * g.a[p][w], acc_b + c * g.b[p][w]
                        else:
                            terms = terms + [(c, g.funcs[p][w])]
                    there = probs[p] * X.columns[stop][p]
                    row[stop] = (here - there - acc_a, acc_b) if affine else (here, there, terms)
            if affine:
                cells = [(r, stop) for r in shares.values() for stop in range(u + 1, n + 1)]
                scale = lcm(*(v.denominator for r, stop in cells for v in r[stop]))
                for r, stop in cells:
                    r[stop] = tuple(v.numerator * (scale // v.denominator) for v in r[stop])

            best = None  # a root (num, den); den == 0 marks a window without mass
            for cand in iter_stopping_index_tuples(
                lattice, meyer, Kind.LAMBDA, lower=lower, scope=block, guard=guard
            ):
                parts = [shares[p][cand[p]] for p in block]
                if affine:
                    root = sum(a for a, _ in parts), sum(b for _, b in parts)
                else:  # bisected, as (root, 1); float X keeps its summation order
                    rhs = Fraction(0)
                    for here, there, _ in parts:
                        rhs = rhs + here - there
                    terms = [t for *_, part in parts for t in part]
                    root = (g_root(terms, rhs, g.tolerance), 1) if terms else (0, 0)
                if root[1] and (best is None or root[0] * best[1] < best[0] * root[1]):
                    best = root
            if best is None:
                atom_x = sum(probs[p] * X.columns[u][p] for p in block)
                if atom_x != 0:
                    raise RepresentationError(
                        "X not representable with this (g, mu): "
                        f"mass exhausted before instant index {u} but X is nonzero"
                    )
                best = (Fraction(0), 1)
            best = Fraction(*best) if affine else best[0]
            for p in block:
                columns[u][p] = best

    L = LatticeProcess((*map(tuple, columns), (Fraction(0),) * lattice.n_paths))
    produced = forward_evaluate(problem.with_L(L))
    if affine:
        if produced.columns != X.columns:
            raise RepresentationError(
                "X not representable with this (g, mu): forward check failed"
            )
    else:
        tol = DEFAULT_VERIFY_TOLERANCE if verify_tolerance is None else verify_tolerance
        worst = max(
            abs(float(made) - float(given))
            for made_col, given_col in zip(produced.columns, X.columns)
            for made, given in zip(made_col, given_col)
        )
        if worst > tol:
            raise RepresentationError(
                f"X not representable with this (g, mu): forward check off by {worst}"
            )
    return L


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
    problem: RepresentationProblem,
    ell,
    tau: RandomInstant | DividedQuadruple,
    X: LatticeProcess | None = None,
    validate: bool = True,
):
    """E[X at tau + accrued g(ell)-mass strictly before tau]."""
    lattice, meyer = problem.lattice, problem.meyer
    if validate:
        if isinstance(tau, RandomInstant):
            if not is_lambda_stopping_time(lattice, meyer, tau, Kind.LAMBDA):
                raise LatticeError("tau is not a Lambda-stopping time")
        else:
            report = validate_divided(lattice, meyer, tau)
            if not report.ok:
                raise LatticeError(
                    "tau is not a divided stopping time: " + "; ".join(report.problems)
                )
    if X is None:
        X = problem.X if problem.X is not None else forward_evaluate(problem)
    total = Fraction(0)
    for p, (read, cutoff) in enumerate(_accrual_cutoffs(lattice, tau)):
        total += _path_value(problem, X, ell, p, read, cutoff)
    return total


def _path_value(
    problem: RepresentationProblem, X: LatticeProcess, ell, p: int, read: int, cutoff: int
):
    """Path p's term of `stopping_value`: its probability times the reading
    of X at `read` plus the g(ell)-mass accrued before `cutoff`."""
    accrued = X.columns[read][p]
    for w in range(cutoff):
        m = problem.mu.mass[p][w]
        if m != 0:
            accrued += problem.g.value(p, w, ell) * m
    return problem.lattice.probabilities[p] * accrued


@dataclass(frozen=True)
class LevelPassage:
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
    # the running supremum of L first reaches the level where L itself does
    hits = _first_hits(
        lattice,
        (0,) * lattice.n_paths,
        lambda p, i: L.columns[i][p] >= ell if variant == 1 else L.columns[i][p] > ell,
    )
    T = RandomInstant(hits, lattice.n_instants)
    return LevelPassage(T=T, quadruple=to_divided_quadruple(lattice, meyer, T))


@dataclass(frozen=True)
class SignalRow:
    ell: Fraction
    value_variant_1: Fraction
    value_variant_2: Fraction
    brute_force: Fraction
    optimizer_count: int

    @property
    def ok(self) -> bool:
        return self.value_variant_1 == self.brute_force == self.value_variant_2


@dataclass(frozen=True)
class SignalReport:
    rows: tuple[SignalRow, ...]
    right_usc_holds: bool

    @property
    def ok(self) -> bool:
        return self.right_usc_holds and all(r.ok for r in self.rows)


def universal_signal_check(
    problem: RepresentationProblem,
    ell_grid: Sequence,
    guard: int | None = DEFAULT_GUARD,
    jobs: int = 1,
) -> SignalReport:
    """Level-passage stops of L attain every accrual-adjusted optimum.

    Requires a nonnegative representable X that is left-USC in expectation
    (named error otherwise); verifies the implied right-USC, then compares
    both level-passage variants against the enumerated divided-stop optimum
    at each grid level, in grid order.  Each stop's (reading, cutoff)
    pairs are found once; at each level a path's weighted value per pair is
    computed once and summed per stop in `stopping_value`'s order, so float
    (monotone g) values match it bit for bit.  Grid points may be evaluated
    on up to `jobs` worker processes; the report order never depends on
    scheduling.
    """
    lattice, meyer = problem.lattice, problem.meyer
    X = problem.X if problem.X is not None else forward_evaluate(problem)
    L = problem.L if problem.L is not None else solve_representation(problem, guard)
    if not is_left_usc_in_expectation(lattice, meyer, X).ok:
        raise PreconditionError("is_left_usc_in_expectation failed for X")
    right_ok = is_right_usc_in_expectation(lattice, meyer, X).ok
    stops = enumerate_divided_stops(lattice, meyer, guard=guard)
    # an id per distinct (path, reading, cutoff); each stop as its ids in path order
    pairs: dict[tuple[int, int, int], int] = {}
    keyed = [
        [pairs.setdefault((p, *cut), len(pairs)) for p, cut in enumerate(cuts)]
        for cuts in (_accrual_cutoffs(lattice, q) for q in stops)
    ]

    def evaluate(ell) -> SignalRow:
        v1, v2 = (
            stopping_value(problem, ell, passage.quadruple, X=X, validate=False)
            for passage in (level_passage(lattice, meyer, L, ell, v) for v in (1, 2))
        )
        level = [_path_value(problem, X, ell, *pair) for pair in pairs]
        best = None
        count = 0
        for keys in keyed:
            val = sum((level[k] for k in keys), Fraction(0))
            if best is None or val > best:
                best, count = val, 1
            elif val == best:
                count += 1
        return SignalRow(
            ell=ell,
            value_variant_1=v1,
            value_variant_2=v2,
            brute_force=best,
            optimizer_count=count,
        )

    rows = tuple(ordered_map(evaluate, ell_grid, jobs))
    return SignalReport(rows=rows, right_usc_holds=right_ok)
