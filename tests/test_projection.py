from __future__ import annotations

import random
from fractions import Fraction

import pytest

import meyerstop.projection as projection_module
from meyerstop.checks import (
    check_projection_duality,
    check_projection_tower,
    check_usc_equivalence,
)
from meyerstop.enumeration import enumerate_stopping_times
from meyerstop.lattice import (
    AT,
    INT,
    TERMINAL,
    Instant,
    InvariantError,
    Kind,
    LatticeError,
    LatticeProcess,
    RandomInstant,
    conditional_expectation,
    field_at_time,
    is_measurable,
)
from meyerstop.projection import (
    Side,
    approximating_witness,
    check_projection_fatou,
    envelope,
    is_left_usc_in_expectation,
    is_right_usc_in_expectation,
    project,
)
from meyerstop.scenario import RandomInstanceParams, generate_instance

from conftest import build_lattice


def random_raw(rng, lattice, low=0, high=6):
    rows = tuple(
        tuple(Fraction(rng.randint(low, high)) for _ in range(lattice.n_instants))
        for _ in range(lattice.n_paths)
    )
    return LatticeProcess.from_rows(rows)


def seeded_instances(count, **kwargs):
    for seed in range(count):
        sc = generate_instance(RandomInstanceParams(seed=seed, **kwargs))
        yield sc.lattice, sc.meyer, sc.processes["Z"]


def test_project_fixes_measurable(branch):
    lattice, meyer = branch
    Z = LatticeProcess.from_rows([[1, 2, 4, 0], [1, 2, 0, 0]])
    assert project(lattice, meyer, Z, Kind.LAMBDA).columns == Z.columns


def test_project_blind_grid_point(branch_blind, branch):
    lattice, blind = branch_blind
    Z = LatticeProcess.from_rows([[0, 0, 4, 0], [0, 0, 0, 0]])
    lam = project(lattice, blind, Z, Kind.LAMBDA)
    assert lam.columns[Instant(1, AT).index] == (Fraction(2), Fraction(2))
    pred = project(lattice, blind, Z, Kind.PREDICTABLE)
    assert pred.columns[Instant(1, AT).index] == (Fraction(2), Fraction(2))
    _, revealing = branch
    opt = project(lattice, revealing, Z, Kind.OPTIONAL)
    assert opt.columns[Instant(1, AT).index] == (Fraction(4), Fraction(0))


def test_project_matches_conditional_expectation_at_stopping_times(three_path_meyer):
    lattice, meyer = three_path_meyer
    rng = random.Random(5)
    raw = random_raw(rng, lattice)
    for kind in Kind:
        projected = project(lattice, meyer, raw, kind)
        assert is_measurable(lattice, meyer, projected, kind)
        for T in enumerate_stopping_times(lattice, meyer, kind):
            if any(isinstance(u, type(TERMINAL)) for u in T.assignment):
                continue
            expect = conditional_expectation(
                lattice, T.value_of(raw), field_at_time(lattice, meyer, T, kind)
            )
            assert T.value_of(projected) == tuple(expect)


def test_envelope_table(chain):
    lattice, _ = chain
    const = LatticeProcess.constant(lattice, 7)
    for side in Side:
        assert envelope(lattice, const, side).columns == const.columns

    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    right = envelope(lattice, Z, Side.RIGHT)
    assert right.rows[0] == (3, 3, 0, 0)
    left = envelope(lattice, Z, Side.LEFT)
    assert left.rows[0] == (1, 3, 3, 0)
    assert left.columns[-1] == (Fraction(0),)


def test_right_usc_examples(chain, branch_blind):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    verdict = is_right_usc_in_expectation(lattice, meyer, Z)
    assert not verdict.ok and verdict.witness == (0, Instant(0, AT))

    down = LatticeProcess.from_rows([[5, 4, 3, 0]])
    assert is_right_usc_in_expectation(lattice, meyer, down).ok

    # branch reward: verify the predicate against a hand-built projection of
    # the right envelope, instant by instant
    lattice2, revealing = branch_blind[0], None
    from conftest import build_lattice

    lattice2, revealing = build_lattice(
        ["1/2", "1/2"], [[[0, 1]], [[0], [1]]], [[[0, 1]], [[0], [1]]]
    )
    Z2 = LatticeProcess.from_rows([[2, 2, 4, 0], [2, 2, 0, 0]])
    right = envelope(lattice2, Z2, Side.RIGHT)
    hand_ok = True
    from meyerstop.lattice import field_partitions

    for idx, part in enumerate(field_partitions(lattice2, revealing, Kind.LAMBDA)):
        projected = conditional_expectation(lattice2, right.columns[idx], part)
        for p in range(2):
            if Z2.columns[idx][p] < projected[p]:
                hand_ok = False
    assert is_right_usc_in_expectation(lattice2, revealing, Z2).ok == hand_ok


def test_left_usc_examples(chain):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    verdict = is_left_usc_in_expectation(lattice, meyer, Z)
    assert not verdict.ok and verdict.witness == (0, Instant(1, AT))

    # nonincreasing interval-to-grid transitions keep the predicate true
    Z2 = LatticeProcess.from_rows([[3, 2, 2, 0]])
    assert is_left_usc_in_expectation(lattice, meyer, Z2).ok

    # reward escaping to the horizon violates the terminal clause
    Z3 = LatticeProcess.from_rows([[0, 0, 0, 5]])
    verdict = is_left_usc_in_expectation(lattice, meyer, Z3)
    assert not verdict.ok and verdict.witness == (0, TERMINAL)


def test_usc_predicates_reject_bad_inputs(branch_blind):
    lattice, meyer = branch_blind
    not_measurable = LatticeProcess.from_rows([[0, 0, 4, 0], [0, 0, 1, 0]])
    with pytest.raises(LatticeError):
        is_right_usc_in_expectation(lattice, meyer, not_measurable)


def test_usc_sequence_equivalence_examples(chain):
    lattice, meyer = chain
    down = LatticeProcess.from_rows([[5, 4, 3, 0]])
    assert check_usc_equivalence(lattice, meyer, down) is None
    jumpy = LatticeProcess.from_rows([[1, 3, 2, 0]])
    assert check_usc_equivalence(lattice, meyer, jumpy) is None


@pytest.mark.parametrize("seed", range(12))
def test_usc_sequence_equivalence_seeded(seed):
    sc = generate_instance(
        RandomInstanceParams(seed=seed, epochs=1 + seed % 3, max_paths=2 + seed % 7)
    )
    assert check_usc_equivalence(sc.lattice, sc.meyer, sc.processes["Z"]) is None


def test_fatou_chains_on_measurable_and_deterministic(chain, branch):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    assert check_projection_fatou(lattice, meyer, Z).ok
    lattice2, meyer2 = branch
    Z2 = LatticeProcess.from_rows([[1, 1, 4, 0], [1, 1, 0, 0]])
    assert check_projection_fatou(lattice2, meyer2, Z2).ok


def _bumped(process, p, idx):
    rows = [list(row) for row in process.rows]
    rows[p][idx] += 1
    return LatticeProcess.from_rows(rows, terminal=process.columns[-1])


@pytest.mark.parametrize(
    "kind, chain_name",
    [
        (Kind.OPTIONAL, "optional"),
        (Kind.PREDICTABLE, "predictable"),
        (Kind.LAMBDA, "optional"),
    ],
)
def test_fatou_reports_a_corrupted_projection(kind, chain_name, branch, monkeypatch):
    lattice, meyer = branch
    Z = LatticeProcess.from_rows([[1, 1, 4, 0], [1, 1, 0, 0]])
    assert check_projection_fatou(lattice, meyer, Z).ok

    def corrupted(lat, mey, process, k):
        out = project(lat, mey, process, k)
        return _bumped(out, 0, 1) if k is kind else out

    monkeypatch.setattr(projection_module, "project", corrupted)
    report = check_projection_fatou(lattice, meyer, Z)
    assert not report.ok
    assert report.violations[0].startswith(f"{chain_name} chain fails at path 0")


def test_fatou_reports_a_liminf_above_the_limsup(branch, monkeypatch):
    # one envelope is both Z_* and Z^*: the inner terms read it on lam Z as
    # it is, the outer terms through a projection, so one bumped cell breaks
    # both chains
    lattice, meyer = branch
    Z = LatticeProcess.from_rows([[1, 1, 4, 0], [1, 1, 0, 0]])

    def corrupted(lat, process, side):
        return _bumped(envelope(lat, process, side), 0, 1)

    monkeypatch.setattr(projection_module, "envelope", corrupted)
    report = check_projection_fatou(lattice, meyer, Z)
    assert {v.split()[0] for v in report.violations} == {"optional", "predictable"}


@pytest.mark.parametrize("seed", range(8))
def test_fatou_chains_raw_seeded(seed):
    sc = generate_instance(
        RandomInstanceParams(seed=seed, epochs=1 + seed % 3, max_paths=2 + seed % 5)
    )
    rng = random.Random(seed + 100)
    raw = random_raw(rng, sc.lattice)
    report = check_projection_fatou(sc.lattice, sc.meyer, raw)
    assert report.ok, report.violations[:1]
    assert report.optional_checked > 0 and report.predictable_checked > 0


def test_approximating_witness(chain, three_path_meyer):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    T = RandomInstant.constant(lattice, Instant(1, AT))
    S = approximating_witness(lattice, meyer, Z, T, Side.RIGHT)
    assert S == RandomInstant.constant(lattice, Instant(1, INT))
    assert S.value_of(Z) == T.value_of(envelope(lattice, Z, Side.RIGHT))

    T_inf = RandomInstant.constant(lattice, TERMINAL)
    assert approximating_witness(lattice, meyer, Z, T_inf, Side.RIGHT) == T_inf

    S = approximating_witness(lattice, meyer, Z, T, Side.LEFT)
    assert S == RandomInstant.constant(lattice, Instant(0, INT))

    # a genuinely non-predictable time cannot be announced
    lattice3, meyer3 = three_path_meyer
    Z3 = LatticeProcess.from_rows([[0] * 6, [0] * 6, [0] * 6])
    bad = RandomInstant.from_assignment(lattice3, (TERMINAL, Instant(2, AT), TERMINAL))
    from meyerstop.lattice import is_lambda_stopping_time

    assert is_lambda_stopping_time(lattice3, meyer3, bad, Kind.OPTIONAL)
    assert not is_lambda_stopping_time(lattice3, meyer3, bad, Kind.PREDICTABLE)
    with pytest.raises(LatticeError, match="predictable"):
        approximating_witness(lattice3, meyer3, Z3, bad, Side.LEFT)


def test_approximating_witness_reports_a_missed_envelope(chain, monkeypatch):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    T = RandomInstant.constant(lattice, Instant(1, AT))

    def missed(lat, process, side):
        return _bumped(envelope(lat, process, side), 0, 2)

    monkeypatch.setattr(projection_module, "envelope", missed)
    for side in Side:
        with pytest.raises(InvariantError, match="witness"):
            approximating_witness(lattice, meyer, Z, T, side)


@pytest.mark.parametrize("seed", range(10))
def test_projection_tower_seeded(seed):
    sc = generate_instance(
        RandomInstanceParams(seed=seed, epochs=1 + seed % 4, max_paths=2 + seed % 9)
    )
    rng = random.Random(seed)
    raw = random_raw(rng, sc.lattice)
    assert check_projection_tower(sc.lattice, sc.meyer, raw) is None
    assert check_projection_duality(sc.lattice, sc.meyer, raw) is None


def test_duality_against_random_increasing_processes():
    # random nondecreasing Lambda-measurable integrators, including a jump at
    # the very first grid point, never see the projection differ from the raw
    # process in expectation
    sc = generate_instance(RandomInstanceParams(seed=3, epochs=2, max_paths=6))
    lattice, meyer = sc.lattice, sc.meyer
    rng = random.Random(17)
    raw = random_raw(rng, lattice)
    lam = project(lattice, meyer, raw, Kind.LAMBDA)
    from meyerstop.lattice import field_partitions

    fields = field_partitions(lattice, meyer, Kind.LAMBDA)
    for _ in range(20):
        increments = []
        for idx in range(lattice.n_instants):
            col = [Fraction(0)] * lattice.n_paths
            for block in fields[idx]:
                v = Fraction(rng.randint(0, 3))
                for p in block:
                    col[p] = v
            increments.append(col)
        lhs = rhs = Fraction(0)
        for p in range(lattice.n_paths):
            prob = lattice.paths[p].probability
            for idx in range(lattice.n_instants):
                lhs += prob * raw.columns[idx][p] * increments[idx][p]
                rhs += prob * lam.columns[idx][p] * increments[idx][p]
        assert lhs == rhs
