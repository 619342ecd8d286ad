from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from conftest import full_divided_stops
from meyerstop import representation
from meyerstop.lattice import (
    AT,
    INT,
    TERMINAL,
    DividedQuadruple,
    Instant,
    LatticeError,
    LatticeProcess,
    RandomInstant,
    conditional_expectation,
    validate_divided,
)
from meyerstop.representation import (
    GFamily,
    RandomMeasure,
    RepresentationError,
    RepresentationProblem,
    forward_evaluate,
    level_passage,
    solve_representation,
    stopping_value,
    universal_signal_check,
    validate_g,
    _integer_root,
    _root,
)
from meyerstop.projection import is_right_usc_in_expectation
from meyerstop.snell import PreconditionError, enumerate_divided_stops
from meyerstop.scenario import RandomInstanceParams, generate_instance, parse_scenario

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def identity_g(lattice):
    n = lattice.n_instants
    zeros = [[0] * n for _ in range(lattice.n_paths)]
    ones = [[1] * n for _ in range(lattice.n_paths)]
    return GFamily.affine(zeros, ones)


@pytest.fixture
def single_path_problem(chain):
    lattice, meyer = chain
    g = identity_g(lattice)
    mu = RandomMeasure.from_rows([[1, 0, 1, 0]])
    L = LatticeProcess.from_rows([[5, 1, 3, 0]])
    return RepresentationProblem(lattice, meyer, g, mu, L=L)


def test_forward_single_path(single_path_problem):
    X = forward_evaluate(single_path_problem)
    assert X.rows[0] == (10, 3, 3, 0)


def test_forward_constant_signal(chain):
    lattice, meyer = chain
    g = identity_g(lattice)
    mu = RandomMeasure.from_rows([[2, 1, 3, 1]])
    c = Fraction(4)
    L = LatticeProcess.from_rows([[c] * 4])
    X = forward_evaluate(RepresentationProblem(lattice, meyer, g, mu, L=L))
    remaining = [7, 5, 4, 1]
    assert X.rows[0] == tuple(c * r for r in remaining)


def test_forward_zero_measure(chain):
    lattice, meyer = chain
    g = identity_g(lattice)
    mu = RandomMeasure.from_rows([[0, 0, 0, 0]])
    L = LatticeProcess.from_rows([[5, 1, 3, 0]])
    X = forward_evaluate(RepresentationProblem(lattice, meyer, g, mu, L=L))
    assert X.rows[0] == (0, 0, 0, 0)


def test_solve_single_path(single_path_problem):
    lattice = single_path_problem.lattice
    X = forward_evaluate(single_path_problem)
    solved = solve_representation(single_path_problem.with_X(X))
    # window roots: 5 at the start, 3 once the first mass has been collected,
    # anything (canonically 0) once no mass remains
    assert solved.rows[0] == (5, 3, 3, 0)
    again = forward_evaluate(single_path_problem.with_L(solved))
    assert again.columns == X.columns


def test_solve_zero_reward(chain):
    lattice, meyer = chain
    g = identity_g(lattice)
    mu = RandomMeasure.from_rows([[1, 1, 1, 0]])
    X = LatticeProcess.from_rows([[0, 0, 0, 0]])
    L = solve_representation(RepresentationProblem(lattice, meyer, g, mu, X=X))
    assert L.rows[0] == (0, 0, 0, 0)


def test_solve_rejects_unrepresentable(chain):
    lattice, meyer = chain
    g = identity_g(lattice)
    # no mass anywhere, but the reward is nonzero
    mu = RandomMeasure.from_rows([[0, 0, 0, 0]])
    X = LatticeProcess.from_rows([[1, 1, 0, 0]])
    with pytest.raises(RepresentationError, match="not representable"):
        solve_representation(RepresentationProblem(lattice, meyer, g, mu, X=X))


def test_problem_needs_exactly_one_side(chain):
    lattice, meyer = chain
    g = identity_g(lattice)
    mu = RandomMeasure.from_rows([[1, 0, 1, 0]])
    L = LatticeProcess.from_rows([[5, 1, 3, 0]])
    with pytest.raises(LatticeError):
        RepresentationProblem(lattice, meyer, g, mu)
    with pytest.raises(LatticeError):
        RepresentationProblem(lattice, meyer, g, mu, X=L, L=L)


def test_a_problem_checks_its_rates_where_they_enter():
    # a direct GFamily or RandomMeasure skips `affine` and `from_rows`, so
    # the problem rejects an even power, a zero slope and a negative mass
    # itself, in the constructors' words
    problem = parse_scenario((FIXTURES / "signal_chain.scn").read_text()).build_problem()
    g, mu = problem.g, problem.mu
    zero = [[0] * len(row) for row in g.b]
    negated = [[-v for v in row] for row in mu.mass]
    cases = [
        (lambda: GFamily.affine(g.a, g.b, 2), {"g": GFamily(g.a, g.b, power=2)}),
        (lambda: GFamily.affine(g.a, zero), {"g": GFamily(g.a, zero)}),
        (lambda: RandomMeasure.from_rows(negated), {"mu": RandomMeasure(negated)}),
    ]
    for constructor, change in cases:
        with pytest.raises(LatticeError) as expected:
            constructor()
        with pytest.raises(LatticeError) as raised:
            problem._replace(**change)
        assert str(raised.value) == str(expected.value)
    for power in (True, 3.0, -1):
        with pytest.raises(LatticeError, match="odd positive integer"):
            problem._replace(g=GFamily(g.a, g.b, power))
    assert problem._replace(g=GFamily(g.a, g.b, 3), mu=RandomMeasure(mu.mass)).g.power == 3


def test_the_solve_on_a_signal_bundle_solves_its_reward():
    # a bundle given by L carries its reward X = forward(L): the solve
    # recovers the least signal of that X, as on the bundle given by X
    problems = [parse_scenario((FIXTURES / "signal_chain.scn").read_text()).build_problem()]
    problems += [
        generate_instance(RandomInstanceParams(seed=seed, epochs=2, max_paths=4)).build_problem()
        for seed in range(4)
    ]
    for problem in problems:
        assert problem.L is not None
        given_X = problem.with_X(forward_evaluate(problem))
        assert solve_representation(problem) == solve_representation(given_X)
        assert problem.reward == given_X.reward


def test_validate_g(branch):
    lattice, meyer = branch
    validate_g(lattice, meyer, identity_g(lattice))
    # a slice varying inside an atom of F_0 is rejected, at every power
    a = [[0] * 4, [0] * 4]
    b = [[1, 1, 1, 1], [2, 1, 1, 1]]
    for power in (1, 3):
        with pytest.raises(LatticeError, match="optional-measurable"):
            validate_g(lattice, meyer, GFamily.affine(a, b, power))
    validate_g(lattice, meyer, GFamily.affine(a, [[1] * 4] * 2, 3))
    # an odd power and positive slopes are what make g strictly increasing
    with pytest.raises(LatticeError, match="strictly positive"):
        GFamily.affine(a, [[-1] * 4] * 2, 3)
    for power in (0, 2, -1, True, 3.0):
        with pytest.raises(LatticeError, match="odd positive integer"):
            GFamily.affine(a, b, power)


def test_stopping_value_examples(single_path_problem):
    problem = single_path_problem
    lattice = problem.lattice
    ell = Fraction(4)
    at0 = RandomInstant.constant(lattice, Instant(0, AT))
    assert stopping_value(problem, ell, at0) == 10
    at1 = RandomInstant.constant(lattice, Instant(1, AT))
    assert stopping_value(problem, ell, at1) == 3 + 4
    never = RandomInstant.constant(lattice, TERMINAL)
    assert stopping_value(problem, ell, never) == 0 + 4 + 4

    # with no mass, the objective is just the expected reward at the stop
    no_mass = RepresentationProblem(
        problem.lattice,
        problem.meyer,
        problem.g,
        RandomMeasure.from_rows([[0, 0, 0, 0]]),
        L=problem.L,
    )
    X = forward_evaluate(no_mass)
    for ell in (Fraction(-3), Fraction(0), Fraction(7)):
        for u in (Instant(0, AT), Instant(1, INT), TERMINAL):
            tau = RandomInstant.constant(lattice, u)
            assert stopping_value(no_mass, ell, tau) == (
                X.columns[-1][0] if u is TERMINAL else X.rows[0][u.index]
            )


def test_stopping_values_share_one_accrual_table(monkeypatch):
    # every canonical divided stop of odd_power.scn read at each grid level,
    # as the signal golden's test reads them: one accrual table in all
    sc = parse_scenario((FIXTURES / "odd_power.scn").read_text(encoding="utf-8"))
    problem = sc.build_problem()
    built = []
    real = representation._accrued
    monkeypatch.setattr(representation, "_accrued", lambda p: built.append(p) or real(p))
    stops = enumerate_divided_stops(sc.lattice, sc.meyer)
    values = [stopping_value(problem, ell, q) for ell in sc.ell_grid for q in stops]
    assert len(values) == 824 and built == [problem]


def test_stopping_value_interior_mass(chain):
    # interval mass sits strictly inside: stopping at the interval misses it,
    # stopping just before the next grid point collects it
    lattice, meyer = chain
    g = identity_g(lattice)
    mu = RandomMeasure.from_rows([[0, 1, 0, 0]])
    L = LatticeProcess.from_rows([[1, 1, 1, 0]])
    problem = RepresentationProblem(lattice, meyer, g, mu, L=L)
    ell = Fraction(10)
    at_interval = RandomInstant.constant(lattice, Instant(0, INT))
    X = forward_evaluate(problem)
    assert stopping_value(problem, ell, at_interval) == X.rows[0][1]
    just_before = DividedQuadruple(
        T=RandomInstant.constant(lattice, Instant(1, AT)),
        w_minus=frozenset({0}),
        w=frozenset(),
        w_plus=frozenset(),
    )
    assert validate_divided(lattice, meyer, just_before).ok
    assert stopping_value(problem, ell, just_before) == X.rows[0][1] + 10


def test_level_passage_examples(single_path_problem):
    problem = single_path_problem
    lattice, meyer = problem.lattice, problem.meyer
    L = problem.L
    at0 = RandomInstant.constant(lattice, Instant(0, AT))
    for variant in (1, 2):
        lp = level_passage(lattice, meyer, L, Fraction(4), variant)
        assert lp.T == at0

    lp1 = level_passage(lattice, meyer, L, Fraction(5), 1)
    lp2 = level_passage(lattice, meyer, L, Fraction(5), 2)
    assert lp1.T == at0
    assert lp2.T == RandomInstant.constant(lattice, TERMINAL)
    assert lp2.quadruple.w == frozenset({0}) and lp2.quadruple.w_plus == frozenset()

    lp = level_passage(lattice, meyer, L, Fraction(2), 1)
    assert lp.T == at0


def test_level_passage_monotone_in_level():
    sc = generate_instance(RandomInstanceParams(seed=5, epochs=2, max_paths=6))
    lattice, meyer = sc.lattice, sc.meyer
    L = sc.processes["L"]
    grid = sorted(sc.ell_grid)
    prev1 = prev2 = None
    for ell in grid:
        t1 = level_passage(lattice, meyer, L, ell, 1).T
        t2 = level_passage(lattice, meyer, L, ell, 2).T
        assert all(a <= b for a, b in zip(t1.assignment, t2.assignment))
        if prev1 is not None:
            assert all(a <= b for a, b in zip(prev1.assignment, t1.assignment))
            assert all(a <= b for a, b in zip(prev2.assignment, t2.assignment))
        prev1, prev2 = t1, t2


def test_universal_signal_single_path(single_path_problem):
    report = universal_signal_check(
        single_path_problem, [Fraction(2), Fraction(7, 2), Fraction(4)]
    )
    assert report.ok
    for row in report.rows:
        assert row.brute_force == 10


def test_universal_signal_low_level_stops_immediately(single_path_problem):
    problem = single_path_problem
    report = universal_signal_check(problem, [Fraction(-1)])
    X = forward_evaluate(problem)
    assert report.rows[0].value_variant_1 == X.rows[0][0] == 10


def test_universal_signal_precondition_error(chain):
    lattice, meyer = chain
    g = identity_g(lattice)
    mu = RandomMeasure.from_rows([[0, 1, 1, 0]])
    L = LatticeProcess.from_rows([[0, 5, 0, 0]])
    problem = RepresentationProblem(lattice, meyer, g, mu, L=L)
    with pytest.raises(PreconditionError, match="is_left_usc_in_expectation"):
        universal_signal_check(problem, [Fraction(1)])


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_seeded(seed):
    sc = generate_instance(
        RandomInstanceParams(seed=seed, epochs=1 + seed % 3, max_paths=2 + seed % 5)
    )
    problem = sc.build_problem()
    X = forward_evaluate(problem)
    solved = solve_representation(problem.with_X(X))
    assert forward_evaluate(problem.with_L(solved)).columns == X.columns


@pytest.mark.parametrize("seed", range(6))
def test_representable_reward_is_right_usc(seed):
    sc = generate_instance(
        RandomInstanceParams(seed=seed, epochs=1 + seed % 3, max_paths=2 + seed % 5)
    )
    problem = sc.build_problem()
    X = forward_evaluate(problem)
    assert is_right_usc_in_expectation(sc.lattice, sc.meyer, X).ok


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_just_before_stops_never_beat_canonical(seed):
    # with a left-USC reward, quadruples with a just-before part never exceed
    # the canonical optimum of the accrual objective
    sc = generate_instance(RandomInstanceParams(seed=seed, epochs=1, max_paths=3))
    problem = sc.build_problem()
    X = forward_evaluate(problem)
    fixed = problem.with_X(X)
    full = full_divided_stops(sc.lattice, sc.meyer)
    canonical = enumerate_divided_stops(sc.lattice, sc.meyer)
    assert len(full) >= len(canonical)
    for ell in sc.ell_grid[:3]:
        full_best = max(stopping_value(fixed, ell, q) for q in full)
        canon_best = max(stopping_value(fixed, ell, q) for q in canonical)
        assert full_best == canon_best


def test_monotone_round_trip(chain):
    # g = ell**3 runs the affine code on S = L**3; the solved S is checked
    # exactly, and the signal is its cube root
    lattice, meyer = chain
    cube = GFamily.affine([[0] * 4], [[1] * 4], 3)
    mu = RandomMeasure.from_rows([[1, 0, 1, 0]])
    L = LatticeProcess.from_rows([[2, 1, 3, 0]])
    problem = RepresentationProblem(lattice, meyer, cube, mu, L=L)
    X = forward_evaluate(problem)
    S = LatticeProcess.from_rows([[8, 1, 27, 0]])
    affine = RepresentationProblem(lattice, meyer, identity_g(lattice), mu, L=S)
    assert X.columns == forward_evaluate(affine).columns == ((35,), (27,), (27,), (0,), (0,))
    # the minimal signal: L_1 = 1 is raised to 3, the root of its window to w = 2
    assert solve_representation(affine.with_X(X)).rows == ((8, 27, 27, 0),)
    solved = solve_representation(problem.with_X(X))
    assert solved.rows == ((2, 3, 3, 0),)
    assert all(type(v) is Fraction for col in solved.columns for v in col)
    assert forward_evaluate(problem.with_L(solved)).columns == X.columns


def test_root_is_exact_where_s_has_a_rational_root(chain):
    for n in range(3000):
        for power in (1, 3, 5):
            r = _integer_root(n, power)
            assert r**power <= n < (r + 1) ** power, (n, power)
    assert _integer_root(10**60 + 1, 3) == 10**20
    assert _root(Fraction(-27, 8), 3) == Fraction(-3, 2)
    assert _root(Fraction(0), 5) == 0 and type(_root(Fraction(0), 5)) is Fraction
    assert _root(Fraction(2), 3) == 2 ** (1 / 3)
    assert _root(Fraction(-2, 27), 3) == -(float(Fraction(2, 27)) ** (1 / 3))
    # S = (2, 3, 3, 0) has no rational cube root where it is not 0
    lattice, meyer = chain
    mu = RandomMeasure.from_rows([[1, 0, 1, 0]])
    S = LatticeProcess.from_rows([[2, 1, 3, 0]])
    X = forward_evaluate(RepresentationProblem(lattice, meyer, identity_g(lattice), mu, L=S))
    cube = GFamily.affine([[0] * 4], [[1] * 4], 3)
    solved = solve_representation(RepresentationProblem(lattice, meyer, cube, mu, X=X))
    assert solved.rows == ((2 ** (1 / 3), 3 ** (1 / 3), 3 ** (1 / 3), 0),)


def test_a_float_cell_is_not_an_exact_rational(chain):
    # the engine is exact: a float, such as the rendered root 2 ** (1/3) of a
    # solved signal, raises a named LatticeError where it is scaled to integers
    lattice, meyer = chain
    mu = RandomMeasure.from_rows([[1, 0, 1, 0]])
    S = LatticeProcess.from_rows([[2, 1, 3, 0]])
    X = forward_evaluate(RepresentationProblem(lattice, meyer, identity_g(lattice), mu, L=S))
    cube = GFamily.affine([[0] * 4], [[1] * 4], 3)
    problem = RepresentationProblem(lattice, meyer, cube, mu, X=X)
    solved = solve_representation(problem)
    with pytest.raises(LatticeError, match=r"^\S+ is not an exact rational$"):
        forward_evaluate(problem.with_L(solved))
    with pytest.raises(LatticeError, match=r"^0\.5 is not an exact rational$"):
        conditional_expectation(lattice, [0.5], lattice.initial_partition())


def test_value_affine_in_level_and_max_convex():
    # for a fixed policy the objective is affine in the level; the optimum is
    # a finite max of affine functions, hence convex along the grid
    sc = generate_instance(RandomInstanceParams(seed=8, epochs=2, max_paths=4))
    problem = sc.build_problem()
    fixed = problem.with_X(forward_evaluate(problem))
    stops = enumerate_divided_stops(sc.lattice, sc.meyer)
    l0, l1 = Fraction(-1), Fraction(5)
    mid = (l0 + l1) / 2
    for q in stops[:10]:
        v0 = stopping_value(fixed, l0, q)
        v1 = stopping_value(fixed, l1, q)
        vm = stopping_value(fixed, mid, q)
        assert vm == (v0 + v1) / 2

    def best(ell):
        return max(stopping_value(fixed, ell, q) for q in stops)

    for a, b in ((l0, l1), (Fraction(0), Fraction(3)), (Fraction(1), Fraction(7))):
        assert best((a + b) / 2) <= (best(a) + best(b)) / 2
