from __future__ import annotations

import copy
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from meyerstop.lattice import (
    AT,
    INT,
    TERMINAL,
    DividedQuadruple,
    Instant,
    Kind,
    LatticeError,
    LatticeProcess,
    MeyerStructure,
    RandomInstant,
    conditional_expectation,
    field_at_time,
    field_partitions,
    from_divided_quadruple,
    is_lambda_stopping_time,
    is_measurable,
    is_union_of_atoms,
    make_partition,
    restrict_time,
    reward_fault,
    section_witness,
    sigma_field_at,
    to_divided_quadruple,
    validate_divided,
    validate_lattice,
)
from meyerstop.enumeration import count_stopping_times, enumerate_stopping_times
from meyerstop.projection import project
from meyerstop.representation import GFamily, RandomMeasure, RepresentationProblem, validate_g
from meyerstop.scenario import RandomInstanceParams, generate_instance, parse_scenario
from meyerstop.snell import (
    check_optimality,
    delta_stop,
    lambda_entry_time,
    mertens_decompose,
    sigma_stop,
    snell_brute_force,
    snell_envelope,
    stopped_process,
)

from conftest import build_lattice

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_instant_total_order():
    chain = [Instant(0, AT), Instant(0, INT), Instant(1, AT), Instant(1, INT)]
    for a, b in zip(chain, chain[1:]):
        assert a < b
    assert all(u < TERMINAL for u in chain)
    assert not TERMINAL < chain[0]
    assert TERMINAL <= TERMINAL


def test_validate_accepts_both_extremes(branch, branch_blind):
    for lattice, meyer in (branch, branch_blind):
        assert validate_lattice(lattice, meyer).ok


def test_validate_rejects_coarse_meyer():
    # F_0 separates but G_1 does not refine it
    lattice, meyer = build_lattice(
        ["1/2", "1/2"],
        [[[0], [1]], [[0], [1]]],
        [[[0], [1]], [[0, 1]]],
    )
    report = validate_lattice(lattice, meyer)
    assert not report.ok
    assert any("G_1 does not refine F_0" in p for p in report.problems)


def test_validate_reports_structural_errors():
    lattice, meyer = build_lattice(
        ["1/2", "1/4"],
        [[[0, 1]], [[0], [1]]],
        [[[0, 1]], [[0], [1]]],
    )
    report = validate_lattice(lattice, meyer)
    assert not report.ok
    assert any("probabilities sum to 3/4" in p for p in report.problems)


def test_sigma_field_at_table(three_path_meyer):
    lattice, meyer = three_path_meyer
    f = lattice.filtration
    assert sigma_field_at(lattice, meyer, Instant(1, AT), Kind.LAMBDA) == meyer.meyer_fields[1]
    assert sigma_field_at(lattice, meyer, Instant(1, AT), Kind.PREDICTABLE) == f[0]
    assert sigma_field_at(lattice, meyer, Instant(1, AT), Kind.OPTIONAL) == f[1]
    for kind in Kind:
        assert sigma_field_at(lattice, meyer, Instant(0, INT), kind) == f[0]
    assert sigma_field_at(lattice, meyer, Instant(0, AT), Kind.PREDICTABLE) == lattice.initial_partition()
    with pytest.raises(LatticeError):
        sigma_field_at(lattice, meyer, TERMINAL, Kind.LAMBDA)


def test_embedded_field_identity(three_path_meyer):
    # information right after an interval equals the next grid's predictable field
    lattice, meyer = three_path_meyer
    for k in range(lattice.epoch_count):
        assert (
            sigma_field_at(lattice, meyer, Instant(k + 1, AT), Kind.PREDICTABLE)
            == lattice.filtration[k]
            == sigma_field_at(lattice, meyer, Instant(k, INT), Kind.LAMBDA)
        )


def test_conditional_expectation_examples(branch, three_path):
    lattice, _ = branch
    out = conditional_expectation(
        lattice, (Fraction(4), Fraction(0)), make_partition([[0, 1]])
    )
    assert out == (Fraction(2), Fraction(2))
    out = conditional_expectation(
        lattice, (Fraction(4), Fraction(0)), make_partition([[0], [1]])
    )
    assert out == (Fraction(4), Fraction(0))

    lattice3, _ = three_path
    rv = (Fraction(1), Fraction(2), Fraction(6))
    # oracle: direct summation over the {1,2} atom
    expected_12 = (Fraction(1, 4) * 2 + Fraction(1, 4) * 6) / Fraction(1, 2)
    out = conditional_expectation(lattice3, rv, make_partition([[0], [1, 2]]))
    assert out == (Fraction(1), expected_12, expected_12) == (1, 4, 4)


NON_PARTITIONS = [
    # path 1 in both blocks: the second average would overwrite the first
    (({0, 1}, {1}), "path 1 lies in two blocks of the partition"),
    ((frozenset(), {0, 1, 2}), "partition has an empty block"),
    (({0}, {1}), "partition does not cover the path set"),
    (({0, 1}, {2, 3}), "path 3 is not one of the lattice's 3 paths"),
    (({-1, 0}, {1, 2}), "path -1 is not one of the lattice's 3 paths"),
]


@pytest.mark.parametrize("blocks, message", NON_PARTITIONS)
def test_conditional_expectation_rejects_a_non_partition(three_path, blocks, message):
    lattice, _ = three_path
    rv = (Fraction(3), Fraction(6), Fraction(9))
    with pytest.raises(LatticeError, match=f"^{message}$"):
        conditional_expectation(lattice, rv, tuple(frozenset(b) for b in blocks))


@pytest.mark.parametrize("blocks, message", NON_PARTITIONS)
@pytest.mark.parametrize("at", [0, 1])
def test_project_rejects_a_field_that_is_not_a_partition(blocks, message, at):
    # the atom tree is built only on a lattice that validate_lattice passes,
    # and raises its problems, each naming its field and the reason that
    # conditional_expectation gives for its partition, whether the bad field
    # is G_0 or F_1
    fields = [[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]]
    bad = [list(b) for b in blocks]
    lattice, meyer = build_lattice(
        ["1/2", "1/4", "1/4"],
        [bad if k == 1 and at else f for k, f in enumerate(fields)],
        [bad if k == 0 and not at else f for k, f in enumerate(fields)],
    )
    problem = f"{'F_1' if at else 'G_0'} is not a partition of the path set: {message}"
    assert validate_lattice(lattice, meyer).problems == (problem,)
    process = LatticeProcess.constant(lattice, 1)
    for _ in range(2):  # a refused tree is not kept
        with pytest.raises(LatticeError, match=f"^{re.escape(problem)}$"):
            project(lattice, meyer, process, Kind.LAMBDA)


def test_a_float_cell_is_refused_through_the_atom_tree(three_path):
    # the tree's conditioning scales the process once, and `_scaled` names a
    # float cell; project leaves the terminal column as it is
    lattice, meyer = three_path
    cols = [list(c) for c in LatticeProcess.constant(lattice, 1).columns]
    cols[2][0], cols[-1] = 0.5, [0] * lattice.n_paths  # path 0 is an atom of G_1
    process = LatticeProcess(tuple(map(tuple, cols)))
    assert reward_fault(lattice, meyer, process) is None
    for kind in Kind:
        with pytest.raises(LatticeError, match=r"^0\.5 is not an exact rational$"):
            project(lattice, meyer, process, kind)
    with pytest.raises(LatticeError, match=r"^0\.5 is not an exact rational$"):
        snell_envelope(lattice, meyer, process)
    cols[2][0], cols[-1] = 1, [0.5] * lattice.n_paths
    process = LatticeProcess(tuple(map(tuple, cols)))
    assert project(lattice, meyer, process, Kind.LAMBDA).columns[-1] == (0.5,) * 3


def test_the_atom_tree_refuses_a_field_that_does_not_refine_the_one_before():
    # F_1 = {0,1},{2} merges two atoms of F_0 = {0},{1},{2}.  Every field is a
    # partition; a tree on shares of atoms would count 65 Lambda-stopping
    # times and condition on the shares
    lattice, meyer = build_lattice(
        ["1/3", "1/3", "1/3"],
        [[[0], [1], [2]], [[0, 1], [2]]],
        [[[0, 1, 2]], [[0, 1], [2]]],
    )
    problems = "; ".join(validate_lattice(lattice, meyer).problems)
    assert problems.startswith("F_1 does not refine F_0 (offending atoms [[0, 1]])")
    zero = LatticeProcess.constant(lattice, 0)
    for kind in (Kind.LAMBDA, Kind.OPTIONAL):
        with pytest.raises(LatticeError, match=f"^{re.escape(problems)}$"):
            count_stopping_times(lattice, meyer, kind)
        with pytest.raises(LatticeError, match=f"^{re.escape(problems)}$"):
            project(lattice, meyer, zero, kind)
    with pytest.raises(LatticeError, match=f"^{re.escape(problems)}$"):
        snell_envelope(lattice, meyer, zero)


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
    st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=4),
)
def test_conditional_expectation_tower(values, weights):
    total = sum(weights)
    lattice, meyer = build_lattice(
        [Fraction(w, total) for w in weights],
        [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
        [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
    )
    rv = tuple(Fraction(v) for v in values)
    fine = make_partition([[0], [1], [2], [3]])
    mid = make_partition([[0, 1], [2, 3]])
    coarse = make_partition([[0, 1, 2, 3]])
    once = conditional_expectation(lattice, rv, mid)
    assert conditional_expectation(lattice, once, coarse) == conditional_expectation(
        lattice, rv, coarse
    )
    assert conditional_expectation(lattice, conditional_expectation(lattice, rv, fine), mid) == once


def test_is_measurable_examples(branch_blind, branch):
    lattice, blind = branch_blind
    _, revealing = branch
    deterministic = LatticeProcess.from_rows([[1, 2, 3, 4], [1, 2, 3, 4]])
    assert is_measurable(lattice, blind, deterministic, Kind.PREDICTABLE)
    split = LatticeProcess.from_rows([[1, 2, 3, 4], [1, 2, 9, 4]])
    assert not is_measurable(lattice, blind, split, Kind.LAMBDA)
    assert is_measurable(lattice, revealing, split, Kind.LAMBDA)
    assert not is_measurable(lattice, revealing, split, Kind.PREDICTABLE)


def test_stopping_time_examples(branch_blind, branch):
    lattice, blind = branch_blind
    _, revealing = branch
    for u in [Instant(0, AT), Instant(1, INT), TERMINAL]:
        T = RandomInstant.constant(lattice, u)
        for kind in Kind:
            assert is_lambda_stopping_time(lattice, blind, T, kind)
    T = RandomInstant.from_assignment(lattice, (Instant(1, AT), TERMINAL))
    assert not is_lambda_stopping_time(lattice, blind, T, Kind.LAMBDA)
    assert is_lambda_stopping_time(lattice, blind, T, Kind.OPTIONAL)
    assert is_lambda_stopping_time(lattice, revealing, T, Kind.LAMBDA)


def test_a_malformed_random_instant_is_no_stopping_time():
    # an index before the chain, past TERMINAL, one index for two paths, or
    # another chain's TERMINAL index is not a random instant of the lattice,
    # whatever its events look like
    sc = parse_scenario((FIXTURES / "branch.scn").read_text(encoding="utf-8"))
    discrete = [[0], [1]]
    lattice, meyer = build_lattice(
        ["1/2", "1/2"], [discrete, discrete], [discrete, discrete], discrete
    )
    zero = LatticeProcess.constant(lattice, 0)
    cases = [
        (sc.lattice, sc.meyer, sc.processes["Z"], RandomInstant((-1, -1), 4)),
        (sc.lattice, sc.meyer, sc.processes["Z"], RandomInstant((5, 5), 4)),
        (lattice, meyer, zero, RandomInstant((0,), 4)),
        # it would render as (2,AT), an instant past the last epoch
        (sc.lattice, sc.meyer, sc.processes["Z"], RandomInstant((4, 4), 6)),
    ]
    for lattice, meyer, Z, T in cases:
        assert validate_lattice(lattice, meyer)
        for kind in Kind:
            assert not is_lambda_stopping_time(lattice, meyer, T, kind), (T.indices, kind)
        with pytest.raises(LatticeError, match="expects a Lambda-stopping time"):
            to_divided_quadruple(lattice, meyer, T)
        zbar = snell_envelope(lattice, meyer, Z)
        with pytest.raises(LatticeError, match="not a Lambda-stopping time"):
            check_optimality(lattice, meyer, Z, T, zbar)


def test_a_random_instant_reads_only_its_own_columns():
    # an index before the chain or past TERMINAL, or another chain's
    # TERMINAL index, names no column: no reading falls back on TERMINAL's
    sc = parse_scenario((FIXTURES / "branch.scn").read_text(encoding="utf-8"))
    lattice, Z = sc.lattice, sc.processes["Z"]
    n = lattice.n_instants
    for T, match in [
        (RandomInstant((-1, -1), n), "index -1 lies outside 0..4"),
        (RandomInstant((0, -2), n), "index -2 lies outside"),
        (RandomInstant((n + 1, 0), n), "index 5 lies outside"),
        (RandomInstant((0, 0), n + 2), "on 6 instants cannot read 5 columns"),
        (RandomInstant((0, 0), n - 2), "on 2 instants cannot read 5 columns"),
    ]:
        with pytest.raises(LatticeError, match=match):
            T.value_of(Z)
        with pytest.raises(LatticeError, match=match):
            stopped_process(lattice, Z, T)
    T = RandomInstant((n, 2), n)
    assert T.value_of(Z) == (0, Z.columns[2][1])
    assert stopped_process(lattice, Z, T).columns[-1] == (0, Z.columns[2][1])


def test_the_repr_of_an_instant_off_its_chain_shows_its_fields():
    # an index outside 0..n_instants has no assignment to render: -1 would
    # raise, and 5 on four instants would read as the epoch-2 interval
    assert repr(RandomInstant((-1, -1), 4)) == "RandomInstant(indices=(-1, -1), n_instants=4)"
    assert repr(RandomInstant((5, 5), 4)) == "RandomInstant(indices=(5, 5), n_instants=4)"
    assert repr(RandomInstant((0, 5), 4)) == "RandomInstant(indices=(0, 5), n_instants=4)"
    assert repr(RandomInstant((0, 4), 4)) == "RandomInstant(assignment=((0,AT), TERMINAL))"
    assert repr(RandomInstant((3, 1), 4)) == "RandomInstant(assignment=((1,INT), (0,INT)))"


def test_from_assignment_rejects_times_off_the_lattice(branch):
    # (2,AT) would share TERMINAL's index on this one-epoch lattice
    lattice, _ = branch
    for bad in ((Instant(2, AT), TERMINAL), (TERMINAL,)):
        with pytest.raises(LatticeError, match="not a random instant"):
            RandomInstant.from_assignment(lattice, bad)


def test_restrict_time(branch):
    lattice, meyer = branch
    T = RandomInstant.constant(lattice, Instant(1, AT))
    assert restrict_time(T, {0, 1}) == T
    assert restrict_time(T, frozenset()) == RandomInstant.constant(lattice, TERMINAL)
    restricted = restrict_time(T, {0})
    assert is_lambda_stopping_time(lattice, meyer, restricted, Kind.LAMBDA)


def test_restrict_time_iff_measurable(three_path_meyer):
    # restriction preserves the stopping property exactly on unions of atoms at T
    lattice, meyer = three_path_meyer
    all_paths = set(range(lattice.n_paths))
    for T in enumerate_stopping_times(lattice, meyer, Kind.LAMBDA):
        atoms = field_at_time(lattice, meyer, T, Kind.LAMBDA)
        for bits in range(1 << lattice.n_paths):
            H = frozenset(p for p in all_paths if bits >> p & 1)
            ok = is_lambda_stopping_time(lattice, meyer, restrict_time(T, H), Kind.LAMBDA)
            assert ok == is_union_of_atoms(H, atoms)


def test_section_witness(branch):
    lattice, meyer = branch
    everything = [
        (p, lattice.instant_at(i)) for p in range(2) for i in range(lattice.n_instants)
    ]
    S = section_witness(lattice, meyer, everything)
    assert S == RandomInstant.constant(lattice, Instant(0, AT))
    S = section_witness(lattice, meyer, [])
    assert S == RandomInstant.constant(lattice, TERMINAL)
    # the graph of a stopping time is its own minimal section
    T = RandomInstant.from_assignment(lattice, (Instant(1, AT), TERMINAL))
    graph = [(0, Instant(1, AT))]
    assert section_witness(lattice, meyer, graph) == T


def test_section_witness_rejects_non_measurable(branch_blind):
    lattice, meyer = branch_blind
    with pytest.raises(LatticeError, match="not a Lambda-set"):
        section_witness(lattice, meyer, [(0, Instant(1, AT))])


@pytest.mark.parametrize(
    "pair, message",
    [
        ((0, Instant(5, AT)), r"instant \(5,AT\) beyond epoch_count 1"),
        ((2, Instant(0, AT)), "path 2 is not one of the lattice's 2 paths"),
        ((-1, Instant(1, INT)), "path -1 is not one of the lattice's 2 paths"),
    ],
)
def test_section_witness_rejects_pairs_off_the_lattice(branch, pair, message):
    lattice, meyer = branch
    with pytest.raises(LatticeError, match=message):
        section_witness(lattice, meyer, [(0, Instant(0, AT)), pair])


def test_section_corollary(branch):
    # processes agreeing at every stopping time agree everywhere
    lattice, meyer = branch
    Z = LatticeProcess.from_rows([[1, 2, 3, 4], [1, 2, 0, 0]])
    Zp = LatticeProcess.from_rows([[1, 2, 3, 4], [1, 2, 0, 5]])
    differs = [
        T
        for T in enumerate_stopping_times(lattice, meyer, Kind.LAMBDA)
        if T.value_of(Z) != T.value_of(Zp)
    ]
    assert differs, "a separating stopping time must exist"
    same = [
        T
        for T in enumerate_stopping_times(lattice, meyer, Kind.LAMBDA)
        if T.value_of(Z) != T.value_of(Z)
    ]
    assert not same


def test_divided_round_trip(branch):
    lattice, meyer = branch
    for T in enumerate_stopping_times(lattice, meyer, Kind.LAMBDA):
        q = to_divided_quadruple(lattice, meyer, T)
        assert q.w_minus == frozenset()
        assert from_divided_quadruple(lattice, q) == T
        assert validate_divided(lattice, meyer, q).ok


def test_divided_examples(chain):
    lattice, meyer = chain
    T = RandomInstant.constant(lattice, Instant(0, INT))
    q = to_divided_quadruple(lattice, meyer, T)
    assert q.T == RandomInstant.constant(lattice, Instant(0, AT))
    assert q.w_plus == frozenset({0})

    # a supplied just-before stop at epoch 1 reads the interval before it
    q = DividedQuadruple(
        T=RandomInstant.constant(lattice, Instant(1, AT)),
        w_minus=frozenset({0}),
        w=frozenset(),
        w_plus=frozenset(),
    )
    assert validate_divided(lattice, meyer, q).ok
    assert from_divided_quadruple(lattice, q) == RandomInstant.constant(
        lattice, Instant(0, INT)
    )

    T = RandomInstant.constant(lattice, TERMINAL)
    q = to_divided_quadruple(lattice, meyer, T)
    assert q.w == frozenset({0}) and q.w_plus == frozenset()


def test_validate_divided_clauses(branch):
    lattice, meyer = branch
    zero_stop = DividedQuadruple(
        T=RandomInstant.constant(lattice, Instant(0, AT)),
        w_minus=frozenset({0}),
        w=frozenset({1}),
        w_plus=frozenset(),
    )
    report = validate_divided(lattice, meyer, zero_stop)
    assert not report.ok
    assert any("(i)" in p for p in report.problems)

    _, blind = build_lattice(
        ["1/2", "1/2"], [[[0, 1]], [[0], [1]]], [[[0, 1]], [[0, 1]]]
    )
    lopsided = DividedQuadruple(
        T=RandomInstant.constant(lattice, Instant(1, AT)),
        w_minus=frozenset(),
        w=frozenset({0}),
        w_plus=frozenset({1}),
    )
    report = validate_divided(lattice, blind, lopsided)
    assert not report.ok
    assert any("(ii)" in p for p in report.problems)


def test_divided_value_reads_limits(chain):
    lattice, _ = chain
    Z = LatticeProcess.from_rows([[10, 11, 12, 13]])
    left = DividedQuadruple(
        T=RandomInstant.constant(lattice, Instant(1, AT)),
        w_minus=frozenset({0}),
        w=frozenset(),
        w_plus=frozenset(),
    )
    assert from_divided_quadruple(lattice, left).value_of(Z) == (Fraction(11),)
    right = DividedQuadruple(
        T=RandomInstant.constant(lattice, Instant(1, AT)),
        w_minus=frozenset(),
        w=frozenset(),
        w_plus=frozenset({0}),
    )
    assert from_divided_quadruple(lattice, right).value_of(Z) == (Fraction(13),)


def test_field_at_time_splits_by_value(three_path_meyer):
    lattice, meyer = three_path_meyer
    T = RandomInstant.from_assignment(lattice, (Instant(1, AT), Instant(2, AT), Instant(2, AT)))
    part = field_at_time(lattice, meyer, T, Kind.PREDICTABLE)
    # path 0 split off by its T-value even though the predictable field at
    # (1,AT) is trivial; paths 1 and 2 stay together (G_2 keeps them merged)
    assert part == make_partition([[0], [1, 2]])


EDGE_TIME = st.builds(Instant, st.integers(0, 2), st.sampled_from([AT, INT])) | st.just(TERMINAL)
EDGE_ASSIGNMENT = st.tuples(EDGE_TIME, EDGE_TIME, EDGE_TIME)


@given(
    EDGE_ASSIGNMENT,
    EDGE_ASSIGNMENT,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=21, max_size=21),
)
def test_random_instant_edge_forms(a, b, values):
    # built from Instant/TERMINAL, held as indices, rendered back unchanged
    lattice, _ = build_lattice(
        ["1/2", "1/4", "1/4"],
        [[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]],
        [[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]],
    )
    S, T = (RandomInstant.from_assignment(lattice, x) for x in (a, b))
    assert S.assignment == a and T.assignment == b
    assert (S <= T) == all(u <= v for u, v in zip(a, b))
    Z = LatticeProcess.from_rows(
        [values[6 * p : 6 * p + 6] for p in range(3)], terminal=values[18:]
    )
    reading = tuple(
        next(
            (Z.rows[p][i] for i in range(lattice.n_instants) if lattice.instant_at(i) == u),
            Z.columns[-1][p],
        )
        for p, u in enumerate(a)
    )
    assert S.value_of(Z) == reading


def _seed3():
    # 4 paths, 2 epochs (6 instants), with a reward Z and a signal problem
    return generate_instance(RandomInstanceParams(seed=3, epochs=2, max_paths=4))


def _misshapen(Z):
    """Z with a fifth path, with a seventh instant, and with an instant missing."""
    rows, term = Z.rows, Z.columns[-1]
    return {
        "5 paths": (
            LatticeProcess.from_rows(rows + rows[-1:], (*term, term[-1])),
            "process has 7 columns of 5 paths; the lattice needs 7 columns of 4 paths",
        ),
        "7 instants": (
            LatticeProcess.from_rows([row + (Fraction(0),) for row in rows], term),
            "process has 8 columns of 4 paths; the lattice needs 7 columns of 4 paths",
        ),
        "5 instants": (
            LatticeProcess.from_rows([row[:-1] for row in rows], term),
            "process has 6 columns of 4 paths; the lattice needs 7 columns of 4 paths",
        ),
    }


@pytest.mark.parametrize("case", ["5 paths", "7 instants", "5 instants"])
def test_a_process_off_the_lattice_shape_is_rejected(case):
    sc = _seed3()
    lattice, meyer = sc.lattice, sc.meyer
    assert (lattice.n_paths, lattice.n_instants) == (4, 6)
    bad, message = _misshapen(sc.processes["Z"])[case]
    calls = [
        lambda: is_measurable(lattice, meyer, bad, Kind.LAMBDA),
        lambda: reward_fault(lattice, meyer, bad),
        lambda: project(lattice, meyer, bad, Kind.OPTIONAL),
        lambda: snell_envelope(lattice, meyer, bad),
        lambda: snell_brute_force(lattice, meyer, bad),
    ]
    for call in calls:
        with pytest.raises(LatticeError) as err:
            call()
        assert str(err.value) == message
    problem = sc.build_problem()
    for name in ("X", "L"):
        with pytest.raises(LatticeError) as err:
            RepresentationProblem(lattice, meyer, problem.g, problem.mu, **{name: bad})
        assert str(err.value) == message.replace("process", name)


def test_a_measure_off_the_lattice_shape_is_rejected():
    sc = _seed3()
    problem = sc.build_problem()
    mass = problem.mu.mass
    for rows, shape in (
        ([row + (Fraction(1),) for row in mass], "4 paths of 7 instants"),
        ([row[:-1] for row in mass], "4 paths of 5 instants"),
        (mass[:-1], "3 paths of 6 instants"),
        ([*mass[:-1], mass[-1][:-1]], "4 paths of 5/6 instants"),
    ):
        mu = RandomMeasure.from_rows(rows)
        with pytest.raises(LatticeError) as err:
            RepresentationProblem(sc.lattice, sc.meyer, problem.g, mu, L=problem.L)
        assert str(err.value) == f"mu has {shape}; the lattice needs 4 paths of 6 instants"


def test_a_g_off_the_lattice_shape_is_rejected():
    # an extra instant in a and b must not be ignored, nor a missing one
    # raise a bare IndexError in validate_g
    sc = _seed3()
    problem = sc.build_problem()
    a, b = problem.g.a, problem.g.b
    for rows, shape in (
        ([row + (Fraction(1),) for row in b], "4 paths of 7 instants"),
        ([row[:-1] for row in b], "4 paths of 5 instants"),
        (b[:-1], "3 paths of 6 instants"),
    ):
        for name, g in (
            ("g.b", GFamily.affine(a, rows)),
            ("g.a", GFamily.affine(rows, b, 3)),
        ):
            message = f"{name} has {shape}; the lattice needs 4 paths of 6 instants"
            with pytest.raises(LatticeError) as err:
                RepresentationProblem(sc.lattice, sc.meyer, g, problem.mu, L=problem.L)
            assert str(err.value) == message
            with pytest.raises(LatticeError) as err:
                validate_g(sc.lattice, sc.meyer, g)
            assert str(err.value) == message


def test_a_problem_refuses_a_g_that_is_not_optional_measurable():
    # built directly, not through its scenario, a problem checks its g as
    # validate_g does; such a g was accepted and forward-evaluated
    sc = _seed3()
    problem = sc.build_problem()
    first = field_partitions(sc.lattice, sc.meyer, Kind.OPTIONAL)[0]
    a = [list(row) for row in problem.g.a]
    a[min(next(block for block in first if len(block) > 1))][0] += 1
    g = GFamily.affine(a, problem.g.b, problem.g.power)
    message = "^g slice at instant index 0 is not optional-measurable$"
    for given in ({"L": problem.L}, {"X": problem.reward}):
        with pytest.raises(LatticeError, match=message):
            RepresentationProblem(sc.lattice, sc.meyer, g, problem.mu, **given)


@pytest.mark.parametrize(
    "indices, n_instants, message",
    [
        ((-1,) * 4, 6, "random instant index -1 lies outside 0..6"),
        ((7,) * 4, 6, "random instant index 7 lies outside 0..6"),
        ((0,) * 3, 6, "RandomInstant(assignment=((0,AT), (0,AT), (0,AT)))"),
        ((0,) * 4, 4, "RandomInstant(assignment=((0,AT), (0,AT), (0,AT), (0,AT)))"),
    ],
)
def test_field_at_time_refuses_what_is_not_a_random_instant_of_the_lattice(
    indices, n_instants, message
):
    # -1 was read as TERMINAL's field F_K, 7 raised a bare IndexError, and a T
    # one path short gave ({0, 1, 2},), which is no partition of the 4 paths
    sc = _seed3()
    assert (sc.lattice.n_paths, sc.lattice.n_instants) == (4, 6)
    if message.startswith("RandomInstant"):  # one path short, or 4 instants, not 6
        message += " is not a random instant of this lattice"
    for kind in Kind:
        with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
            field_at_time(sc.lattice, sc.meyer, RandomInstant(indices, n_instants), kind)



@pytest.mark.parametrize("indices", [(0, 0, 0), (0,) * 5], ids=["3 paths", "5 paths"])
def test_a_time_reads_no_process_with_another_path_count(indices):
    # (0, 0, 0) read paths 0-2 of the 4, and stopped_process built 3-path
    # columns from it; (0,) * 5 raised a bare IndexError
    sc = _seed3()
    lattice, Z = sc.lattice, sc.processes["Z"]
    T = RandomInstant(indices, lattice.n_instants)
    message = f"^a random instant on {len(indices)} paths cannot read 4 paths$"
    with pytest.raises(LatticeError, match=message):
        T.value_of(Z)
    with pytest.raises(LatticeError, match=message):
        stopped_process(lattice, Z, T)


@pytest.mark.parametrize("rule", ["lambda_entry_time", "delta_stop", "sigma_stop"])
@pytest.mark.parametrize(
    "indices, message",
    [
        ((-1,) * 4, "random instant index -1 lies outside 0..6"),
        (
            (0,) * 3,
            "RandomInstant(assignment=((0,AT), (0,AT), (0,AT)))"
            " is not a random instant of this lattice",
        ),
        ((9,) * 4, "random instant index 9 lies outside 0..6"),
    ],
    ids=["index -1", "3 paths", "index 9"],
)
def test_a_stop_rule_refuses_a_start_off_the_lattice(
    rule, indices, message
):
    # lambda_entry_time read S = (-1,) * 4 into a time with index -1,
    # lambda_entry_time and sigma_stop gave 3-path times from a 3-path S,
    # and delta_stop sent S = (9,) * 4 to TERMINAL
    sc = _seed3()
    lattice, meyer, Z = sc.lattice, sc.meyer, sc.processes["Z"]
    zbar = snell_envelope(lattice, meyer, Z)
    decomp = mertens_decompose(lattice, meyer, zbar)
    S = RandomInstant(indices, lattice.n_instants)
    calls = {
        "lambda_entry_time": lambda: lambda_entry_time(lattice, Z, zbar, Fraction(1, 2), S),
        "delta_stop": lambda: delta_stop(lattice, meyer, Z, S, zbar),
        "sigma_stop": lambda: sigma_stop(lattice, S, decomp),
    }
    with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
        calls[rule]()


def _branch_reward():
    return parse_scenario((FIXTURES / "branch.scn").read_text(encoding="utf-8")).processes["Z"]


def test_a_process_keeps_one_reward_answer_per_lattice_and_meyer_structure(
    branch, branch_blind, reward_walks
):
    # Z tells its paths apart at (1, AT): a reward where G_1 reveals them, not
    # Lambda-measurable where G_1 is blind.  The two lattices are equal but
    # distinct, each with its own trees.  An answer kept for one pair never
    # serves another, and each pair is walked once over both rounds.
    Z = _branch_reward()
    (lattice, meyer), (other, blind) = branch, branch_blind
    assert lattice == other and lattice is not other
    pairs = [
        (lattice, meyer, None),
        (lattice, blind, "process is not Lambda-measurable"),
        (other, blind, "process is not Lambda-measurable"),
        (other, meyer, None),
    ]
    for _ in range(2):
        for lat, mey, answer in pairs:
            assert reward_fault(lat, mey, Z) == answer
    assert len(reward_walks) == 4 and all(p is Z for p in reward_walks)


def test_a_replaced_or_copied_process_carries_no_reward_answer(branch, reward_walks):
    lattice, meyer = branch
    Z = _branch_reward()
    assert reward_fault(lattice, meyer, Z) is None and len(reward_walks) == 1
    twins = [
        Z._replace(),
        Z._replace(columns=Z.columns),
        LatticeProcess(Z.columns),
        copy.copy(Z),
        copy.deepcopy(Z),
        pickle.loads(pickle.dumps(Z)),
    ]
    for twin in twins:
        assert twin == Z and twin is not Z
        reward_walks.clear()
        assert reward_fault(lattice, meyer, twin) is None
        assert len(reward_walks) == 1 and reward_walks[0] is twin
    negative = Z._replace(columns=tuple(tuple(-v for v in c) for c in Z.columns))
    assert reward_fault(lattice, meyer, negative) == "process must be nonnegative"
    assert reward_fault(lattice, meyer, Z) is None


def test_a_tested_process_pickles_as_before(branch):
    # the kept answer holds an atom tree, which no pickle or copy carries
    lattice, meyer = branch
    Z = _branch_reward()
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    before = [pickle.dumps(Z, protocol) for protocol in protocols]
    assert reward_fault(lattice, meyer, Z) is None
    assert [pickle.dumps(Z, protocol) for protocol in protocols] == before
    assert before[-1] == pickle.dumps(LatticeProcess(Z.columns), protocols[-1])
    assert repr(Z) == f"LatticeProcess(columns={Z.columns!r})"
    assert Z == (Z.columns,) and hash(Z) == hash((Z.columns,))
    assert LatticeProcess._fields == ("columns",)


def _measurable_by_sets(lattice, meyer, process, kind):
    """The definition: each column takes at most one value on each block of
    its field, F_K for the terminal column."""
    fields = field_partitions(lattice, meyer, kind) + [lattice.filtration[-1]]
    return all(
        len({column[i] for i in block}) < 2
        for column, part in zip(process.columns, fields)
        for block in part
    )


def _constant_on_blocks(lattice, meyer, kind, draw):
    """A process holding one `draw()` value on each block of each field."""
    fields = field_partitions(lattice, meyer, kind) + [lattice.filtration[-1]]
    columns = []
    for part in fields:
        column = [None] * lattice.n_paths
        for block in part:
            value = draw()
            for i in block:
                column[i] = value
        columns.append(tuple(column))
    return LatticeProcess(tuple(columns)), fields


def _relabelled(lattice, meyer, rng):
    """The same lattice with its paths in a shuffled order, so that its
    blocks hold paths whose indices are not consecutive."""
    order = list(range(lattice.n_paths))
    rng.shuffle(order)
    new = {old: i for i, old in enumerate(order)}

    def moved(part):
        return make_partition([new[i] for i in block] for block in part)

    lattice = lattice._replace(
        paths=tuple(lattice.paths[old] for old in order),
        filtration=tuple(map(moved, lattice.filtration)),
        initial_field=None if lattice.initial_field is None else moved(lattice.initial_field),
    )
    return lattice, meyer._replace(meyer_fields=tuple(map(moved, meyer.meyer_fields)))


def test_measurability_compares_as_the_set_definition():
    # every cell of a measurable process is perturbed in turn, on generated
    # lattices in all three regimes, half of them with their paths shuffled,
    # with int and with Fraction cells; a twin of equal value and other type
    # (1 and Fraction(1)), or an equal but distinct Fraction, is no change
    rng = random.Random(5)
    draws = {
        "int": lambda: rng.randint(0, 3),
        "fraction": lambda: Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))),
    }
    seen = {True: 0, False: 0}
    scattered = 0
    for seed in range(12):
        for regime in ("PREDICTABLE_EXTREME", "OPTIONAL_EXTREME", "RANDOM_BETWEEN"):
            params = RandomInstanceParams(seed, 1 + seed % 4, 2 + seed % 11, regime)
            sc = generate_instance(params)
            lattice, meyer = sc.lattice, sc.meyer
            if seed % 2:
                lattice, meyer = _relabelled(lattice, meyer, rng)
                assert validate_lattice(lattice, meyer).ok
            for kind in Kind:
                for draw in draws.values():
                    process, fields = _constant_on_blocks(lattice, meyer, kind, draw)
                    assert is_measurable(lattice, meyer, process, kind)
                    assert _measurable_by_sets(lattice, meyer, process, kind)
                    for idx, part in enumerate(fields):
                        scattered += sum(max(b) - min(b) + 1 > len(b) for b in part)
                        for p in range(lattice.n_paths):
                            value = process.columns[idx][p]
                            whole = type(value) is Fraction and value.denominator == 1
                            twin = int(value) if whole else Fraction(value)
                            for cell in (twin, value + 1, value - Fraction(1, 2)):
                                columns = list(process.columns)
                                columns[idx] = columns[idx][:p] + (cell,) + columns[idx][p + 1 :]
                                changed = LatticeProcess(tuple(columns))
                                expected = _measurable_by_sets(lattice, meyer, changed, kind)
                                assert is_measurable(lattice, meyer, changed, kind) == expected
                                seen[expected] += 1
    # both answers occur, and on blocks whose paths are not consecutive
    assert seen[True] > 0 and seen[False] > 0 and scattered > 0


def test_measurability_keeps_its_shape_check_and_empty_blocks(branch):
    lattice, meyer = branch
    with pytest.raises(LatticeError, match="the lattice needs 5 columns"):
        is_measurable(lattice, meyer, LatticeProcess(((0, 0),) * 4), Kind.LAMBDA)
    # the terminal column reads F_K, which tells the paths apart on branch
    # and not on a twin whose filtration never splits
    split_end = LatticeProcess(((1, 1),) * 4 + ((0, 1),))
    assert is_measurable(lattice, meyer, split_end, Kind.LAMBDA)
    blind, blind_meyer = build_lattice(["1/2", "1/2"], [[[0, 1]], [[0, 1]]], [[[0, 1]], [[0, 1]]])
    assert not is_measurable(blind, blind_meyer, split_end, Kind.LAMBDA)
    # a field with an empty block is not a partition: measurability reads
    # the atom tree, which validate_lattice's report refuses, as project does
    hollow = MeyerStructure(tuple(f + (frozenset(),) for f in blind_meyer.meyer_fields))
    flat = LatticeProcess(((2, 2),) * 5)
    message = "G_0 is not a partition of the path set: partition has an empty block"
    for refused in (is_measurable, project):
        with pytest.raises(LatticeError, match=f"^{message}; G_1 "):
            refused(blind, hollow, flat, Kind.LAMBDA)
