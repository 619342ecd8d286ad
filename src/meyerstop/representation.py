"""Reward representation by a running-supremum signal.

A reward X is represented by a signal L when, at every instant and atom,
X equals the conditional sum of g evaluated at the running supremum of L
against the measure mu from that instant on.  `forward_evaluate` computes
X from L.  A `RepresentationProblem` keeps its X and two integer tables:
its `accrual`, the g-mass accrued before each (instant, path) cell, and its
`lines`, where X read at a cell after that accrual is a line in the level
s.  A Lambda-stopping time is a point (sum K, sum I) of the lines, so
`solve_representation` reads each atom's least window root off upper
convex hulls, in one pass over the Lambda atom tree.  `stopping_value`
reads the accrual at a stop, and `universal_signal_check` certifies that
the level-passage stops of L solve every accrual-adjusted stopping problem.

g = a + b * ell**power with one odd power is affine in s = ell**power, and s
is increasing in ell, so running suprema, window roots and level passages of L
are those of S = L**power under the affine rates a + b*s, in exact rationals.
L read in and grid levels are raised to the power, and the solved L is the
real root of S (`_root`), a float only where S has no rational root.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from typing import NamedTuple, Sequence

from .enumeration import _fold
from .lattice import (
    DividedQuadruple,
    FilteredLattice,
    Kind,
    LatticeError,
    LatticeProcess,
    MeyerStructure,
    RandomInstant,
    _AtomTree,
    _Record,
    _atom_tree,
    _divided_readings,
    _first_hits,
    _node_columns,
    _require_shape,
    _scaled,
    _weighted,
    expected_value,
    is_lambda_stopping_time,
    is_measurable,
    reward_fault,
    to_divided_quadruple,
    validate_divided,
)
from .snell import PreconditionError
from .projection import is_left_usc_in_expectation, is_right_usc_in_expectation


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
    tree = _atom_tree(lattice, meyer, Kind.OPTIONAL)
    for i, paths in zip(tree.inst, tree.paths):
        if i < tree.n_inst and len({(g.a[p][i], g.b[p][i]) for p in paths}) > 1:
            raise LatticeError(f"g slice at instant index {i} is not optional-measurable")


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
    as it checks that choice, every shape and every rate, and keeps its `reward`,
    its `accrual` and `lines` tables and its `solved` S or the solve's error,
    each built once."""

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
        given = ("X", self.X) if self.L is None else ("L", self.L)
        for name, rows in (given, ("mu", self.mu.mass)):
            _require_shape(self.lattice, rows, name)
        validate_g(self.lattice, self.meyer, self.g)
        _require_rates(self.g.b, self.g.power, self.mu.mass)

    @cached_property
    def reward(self) -> LatticeProcess:
        """X as given, else forward(L), evaluated once."""
        return self.X if self.L is None else forward_evaluate(self)

    @cached_property
    def accrual(self) -> tuple[list, list, list, int]:
        """`_accrued` as one `_weighted` table: the row W = P and the rows
        A = P * a-mass and B = P * b-mass, and their one denominator."""
        acc_a, acc_b = _accrued(self)
        (W, *rows), den = _weighted(self.lattice, [(1,) * self.lattice.n_paths, *acc_a, *acc_b])
        return W, rows[: len(acc_a)], rows[len(acc_a) :], den

    @cached_property
    def lines(self) -> tuple[list, list, int]:
        """Integer rows I = P * (`reward` + a-mass) and K = P * b-mass over one
        denominator D, and D: cell (i, p) is worth (I + s * K) / D at level s."""
        _, A, B, den = self.accrual
        X, scale = _weighted(self.lattice, self.reward.columns)
        I = [[x * den + a * scale for x, a in zip(xs, acc)] for xs, acc in zip(X, A)]
        return I, [[b * scale for b in row] for row in B], scale * den

    @cached_property
    def _solution(self) -> LatticeProcess | Exception:
        """`_solve`'s S, or the error of the solve that failed."""
        try:
            return _solve(self)
        except (RepresentationError, LatticeError) as exc:
            return exc

    @property
    def solved(self) -> LatticeProcess:
        """S = L**power solved from `reward` (`_solve`) once; a failed solve
        keeps its error and raises it each time S is read."""
        if isinstance(self._solution, Exception):
            raise self._solution
        return self._solution

    def with_L(self, L: LatticeProcess) -> "RepresentationProblem":
        return RepresentationProblem(self.lattice, self.meyer, self.g, self.mu, None, L)

    def with_X(self, X: LatticeProcess) -> "RepresentationProblem":
        return RepresentationProblem(self.lattice, self.meyer, self.g, self.mu, X, None)


def _levels(g: GFamily, L: LatticeProcess) -> LatticeProcess:
    """S = L**power, the signal in the units where g is affine: L itself at power 1."""
    if g.power == 1:
        return L
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
    """X from L: at instant u and atom of the Lambda field, the probability-weighted
    atom average of sum_{w >= u} g_w(max of L over [u, w]) * mu_w; 0 at TERMINAL."""
    L = problem.L
    if L is None:
        raise LatticeError("forward_evaluate needs the signal process L")
    if not is_measurable(problem.lattice, problem.meyer, L, Kind.LAMBDA):
        raise LatticeError("signal process is not Lambda-measurable")
    return _forward(problem, _levels(problem.g, L))


def _forward(problem: RepresentationProblem, S: LatticeProcess) -> LatticeProcess:
    """`forward_evaluate` on S = L**power, in integers on the `accrual` table and
    S's `_weighted` cells, with one `Fraction` per (instant, atom).  S's running
    max from u stays at S_u up to the first j > u where S exceeds it, so a path's
    b-mass tail from u is S_u * (B_j - B_u) + its tail from j.  A level times a
    step carries P twice, and W = P divides it out times the accrual denominator."""
    lattice, n = problem.lattice, problem.lattice.n_instants
    W, A, B, den = problem.accrual
    levels, scale = _weighted(lattice, S.columns[:n])
    tails = [[0] * lattice.n_paths for _ in range(n + 1)]
    for p in range(lattice.n_paths):
        ahead = [n]  # the instants after u where S exceeds everything before them
        for u in range(n - 1, -1, -1):
            while ahead[-1] < n and levels[ahead[-1]][p] <= levels[u][p]:
                ahead.pop()
            j = ahead[-1]
            tails[u][p] = levels[u][p] * (B[j][p] - B[u][p]) + tails[j][p]
            ahead.append(u)

    def value(u: int, block) -> Fraction:
        num = sum((A[n][p] - A[u][p]) * scale + tails[u][p] * den // W[p] for p in block)
        return Fraction(num, scale * sum(W[p] for p in block))

    tree = _atom_tree(lattice, problem.meyer, Kind.LAMBDA)
    return _by_atom(problem, [value(u, ps) for u, ps in zip(tree.inst, tree.paths) if u < n])


def _by_atom(problem: RepresentationProblem, values) -> LatticeProcess:
    """The process worth values[j] on node j of the Lambda atom tree, for
    each node before TERMINAL, and 0 at TERMINAL."""
    columns = _node_columns(_atom_tree(problem.lattice, problem.meyer, Kind.LAMBDA), values)
    return LatticeProcess((*columns[:-1], (Fraction(0),) * problem.lattice.n_paths))


def _accrued(problem: RepresentationProblem) -> tuple[list, list]:
    """The accrual rule, without P: per instant index i (TERMINAL included)
    and path p, the a-mass sum_{w < i} a_w * mu_w and the b-mass
    sum_{w < i} b_w * mu_w.  At level s, X read at (i, p) after that accrual
    is worth X_i + a + s * b; the problem's `accrual` weighs it by P once."""
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
    read off upper convex hulls (`_hull_roots`), so no guard applies.  Windows
    carrying no mass are skipped; an atom whose remaining mass is exhausted
    takes L = 0 and must carry X = 0.  L is the real root of S = L**power, the
    problem's `solved` S."""
    power, S = problem.g.power, problem.solved
    return LatticeProcess(tuple(tuple(_root(s, power) for s in col) for col in S.columns))


def _solve(problem: RepresentationProblem) -> LatticeProcess:
    """`solve_representation` on S = L**power, where each window equation is affine
    in s, by one hull pass over the Lambda atom tree on the problem's `lines`;
    a failed closing forward check of S against X raises RepresentationError."""
    lattice, meyer = problem.lattice, problem.meyer
    X = problem.reward
    if not is_measurable(lattice, meyer, X, Kind.LAMBDA):
        raise LatticeError("reward process is not Lambda-measurable")
    if any(t != 0 for t in X.columns[-1]):
        raise LatticeError("reward process must vanish at TERMINAL")
    I, K, _ = problem.lines
    tree, roots = _atom_tree(lattice, meyer, Kind.LAMBDA), []
    for u, block, (num, den) in zip(tree.inst, tree.paths, _hull_roots(tree, I, K)):
        if not den and X.columns[u][block[0]] != 0:  # X is constant on the atom
            raise RepresentationError(
                "X not representable with this (g, mu): "
                f"mass exhausted before instant index {u} but X is nonzero"
            )
        roots.append(Fraction(num, den or 1))  # num is 0 where den is
    S = _by_atom(problem, roots)
    if _forward(problem, S).columns != X.columns:
        raise RepresentationError("X not representable with this (g, mu): forward check failed")
    return S


def _hull_roots(tree: _AtomTree, I, K) -> list[tuple[int, int]]:
    """The least window root (num, den) of each node (u, paths) before TERMINAL,
    in node order; den 0 if no window after u has mass.  A time is the point
    (sum K, sum I) of its cells.  A node stops whole at its point (K_u, I_u) or
    passes on to its parts, which decide alone, so its upper hull is that of its
    point and the Minkowski sum of its parts' hulls (Bank & El Karoui 2004).  As
    mass only accrues, each time (b, a) after u has b >= K_u and root (I_u - a) /
    (b - K_u), least at a vertex of the parts' sum with b > K_u, unless a massless
    window has a > I_u, which no representable X has.  One pass over the
    nodes, children first, keeps each hull until its parent reads it."""
    roots, hulls = [], {}
    for j in range(len(tree.inst) - 1, -1, -1):
        i, paths = tree.inst[j], tree.paths[j]
        k, c = sum(K[i][p] for p in paths), sum(I[i][p] for p in paths)
        if i == tree.n_inst:
            hulls[j] = [(k, c)]
            continue
        after = reduce(_sum_hull, [hulls.pop(kid) for kid in tree.kids[j]])
        num = den = 0
        for b, a in after:
            if b > k and (not den or (c - a) * den < num * (b - k)):
                num, den = c - a, b - k
        roots.append((num, den))
        hulls[j] = _upper([(k, c), *after])
    return roots[::-1]


def _sum_hull(left: list, right: list) -> list[tuple[int, int]]:
    """The upper hull of the Minkowski sum of two upper hulls."""
    return _upper(sorted((x + u, y + v) for x, y in left for u, v in right))


def _upper(points: list) -> list[tuple[int, int]]:
    """The upper hull of points sorted by x, by one monotone chain; of points
    with one x, only the highest can be a vertex."""
    h: list = []
    for x, y in points:
        while h and h[-1][0] == x and h[-1][1] <= y or len(h) > 1 and (
            (h[-1][0] - h[-2][0]) * (y - h[-2][1]) >= (h[-1][1] - h[-2][1]) * (x - h[-2][0])
        ):
            h.pop()
        if not h or h[-1][0] < x:
            h.append((x, y))
    return h


def _accrual_cutoffs(lattice: FilteredLattice, tau: RandomInstant | DividedQuadruple) -> list:
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


def stopping_value(problem: RepresentationProblem, ell, tau: RandomInstant | DividedQuadruple):
    """E[X at tau + accrued g(ell)-mass strictly before tau]: the `expected_value`
    of each path's reading of X, plus the `accrual` rows A + s * B at each path's
    cutoff.  tau must be a Lambda- or divided stopping time (else LatticeError);
    X, the problem's `reward`, and its accrual table are built once per problem."""
    lattice, meyer = problem.lattice, problem.meyer
    if isinstance(tau, RandomInstant):
        if not is_lambda_stopping_time(lattice, meyer, tau, Kind.LAMBDA):
            raise LatticeError("tau is not a Lambda-stopping time")
    else:
        report = validate_divided(lattice, meyer, tau)
        if not report.ok:
            raise LatticeError("tau is not a divided stopping time: " + "; ".join(report.problems))
    X, (_, A, B, den) = problem.reward, problem.accrual
    cuts = _accrual_cutoffs(lattice, tau)
    value = expected_value(lattice, [X.columns[read][p] for p, (read, _) in enumerate(cuts)])
    a, b = (sum(rows[cut][p] for p, (_, cut) in enumerate(cuts)) for rows in (A, B))
    return value + Fraction(a, den) + ell**problem.g.power * Fraction(b, den)


class LevelPassage(NamedTuple):
    T: RandomInstant
    quadruple: DividedQuadruple


def level_passage(
    lattice: FilteredLattice, meyer: MeyerStructure, L: LatticeProcess, ell, variant: int
) -> LevelPassage:
    """First instant where the running supremum of L reaches (variant 1) or
    exceeds (variant 2) the level; suprema are attained on the lattice, so
    both variants are plain stopping times in quadruple form."""
    if variant not in (1, 2):
        raise LatticeError("variant must be 1 or 2")
    if not is_measurable(lattice, meyer, L, Kind.LAMBDA):
        raise LatticeError("signal process is not Lambda-measurable")
    T = RandomInstant(_passage(lattice, L.columns, ell, variant), lattice.n_instants)
    return LevelPassage(T=T, quadruple=to_divided_quadruple(lattice, meyer, T))


def _passage(lattice: FilteredLattice, columns, level, variant: int) -> tuple[int, ...]:
    """The indices of `level_passage`, on the `columns` of a signal already checked."""
    # the running supremum of L first reaches the level where L itself does
    return _first_hits(
        lattice,
        (0,) * lattice.n_paths,
        lambda p, i: columns[i][p] >= level if variant == 1 else columns[i][p] > level,
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
    expectation (PreconditionError otherwise); verifies the implied right-USC,
    then compares both level-passage variants against the optimum over the
    canonical divided stops at each grid level, in grid order.  Such a stop
    reads X, and cuts the accrual, where its Lambda-stopping time stops each
    path, so at s = num / den it is worth the sum of its cells den * I + num * K
    of the `lines`, over den * D.  One `_fold` per level over the Lambda
    atom tree gives the optimum and its optimizer count: no stop is listed,
    so no guard applies.  Passages are read by `_passage` on S = L**power,
    unchecked: the given L's levels, as `forward_evaluate` checks L, or the
    problem's `solved` S, scaled once to integers over D_S: a cell reaches s =
    num / den where it reaches ceil(num D_S / den), exceeds it past the floor.
    """
    lattice, meyer, power = problem.lattice, problem.meyer, problem.g.power
    S = problem.solved if problem.L is None else _levels(problem.g, problem.L)
    X = problem.reward
    if fault := reward_fault(lattice, meyer, X):
        raise PreconditionError(f"X is not a reward: {fault}")
    if not is_left_usc_in_expectation(lattice, meyer, X).ok:
        raise PreconditionError("is_left_usc_in_expectation failed for X")
    right_ok = is_right_usc_in_expectation(lattice, meyer, X).ok
    I, K, D = problem.lines
    tree = _atom_tree(lattice, meyer, Kind.LAMBDA)
    cells, scale = _scaled(S.columns)

    def evaluate(ell) -> SignalRow:
        num, den = Fraction(ell**power).as_integer_ratio()
        gains = [[den * a + num * b for a, b in zip(i_row, k_row)] for i_row, k_row in zip(I, K)]
        level = num * scale
        cuts = ((-(-level // den), 1), (level // den, 2))
        passages = (enumerate(_passage(lattice, cells, cut, v)) for cut, v in cuts)
        v1, v2 = (sum(gains[i][p] for p, i in hits) for hits in passages)
        best, count, _ = _fold(tree, gains).top
        return SignalRow(ell, *(Fraction(v, den * D) for v in (v1, v2, best)), count)

    return SignalReport(rows=tuple(map(evaluate, ell_grid)), right_usc_holds=right_ok)
