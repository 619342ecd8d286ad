from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import times_within
from meyerstop.enumeration import (
    EnumerationGuardError,
    _between,
    _maximum,
    count_stopping_times,
    enumerate_stopping_times,
    iter_stopping_index_tuples,
)
from meyerstop.lattice import (
    AT,
    INT,
    TERMINAL,
    Instant,
    Kind,
    LatticeError,
    LatticeProcess,
    RandomInstant,
    _canonical_quadruple,
    conditional_expectation,
    field_at_time,
    field_partitions,
    from_divided_quadruple,
    validate_divided,
)
from meyerstop.snell import (
    PreconditionError,
    check_optimality,
    delta_stop,
    enumerate_divided_stops,
    expected_value,
    is_lambda_martingale,
    is_lambda_supermartingale,
    lambda_entry_time,
    mertens_decompose,
    sigma_stop,
    smallest_largest_optimal,
    snell_brute_force,
    snell_envelope,
)
from meyerstop.scenario import REGIMES, RandomInstanceParams, generate_instance

ZERO = Instant(0, AT)


def closed_martingale(lattice, meyer, terminal_rv):
    """M_u = E[xi | field at u] with M at TERMINAL equal to xi."""
    fields = field_partitions(lattice, meyer, Kind.LAMBDA)
    cols = [conditional_expectation(lattice, terminal_rv, part) for part in fields]
    return LatticeProcess((*cols, tuple(terminal_rv)))


def decomposed(lattice, meyer, Z):
    """The Mertens decomposition of the Snell envelope of Z."""
    return mertens_decompose(lattice, meyer, snell_envelope(lattice, meyer, Z))


def sandwich(lattice, meyer, Z):
    """`smallest_largest_optimal` on the envelope of Z and its decomposition."""
    zbar = snell_envelope(lattice, meyer, Z)
    decomp = mertens_decompose(lattice, meyer, zbar)
    return smallest_largest_optimal(lattice, meyer, Z, zbar, decomp)


def test_envelope_examples(chain, branch):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    assert snell_envelope(lattice, meyer, Z).rows[0] == (3, 3, 2, 0)

    lattice2, meyer2 = branch
    Z2 = LatticeProcess.from_rows([[1, 1, 4, 0], [1, 1, 0, 0]])
    zbar = snell_envelope(lattice2, meyer2, Z2)
    assert zbar.columns[0] == (2, 2)
    assert zbar.columns[1] == (2, 2)

    zero = LatticeProcess.from_rows([[0, 0, 0, 0]])
    assert snell_envelope(lattice, meyer, zero).rows[0] == (0, 0, 0, 0)

    with pytest.raises(LatticeError):
        snell_envelope(lattice, meyer, LatticeProcess.from_rows([[1, -1, 0, 0]]))


def test_brute_force_examples(chain, branch):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    result = snell_brute_force(lattice, meyer, Z)
    assert result.value == 3
    assert result.optimizers == (RandomInstant.constant(lattice, Instant(0, INT)),)

    lattice2, meyer2 = branch
    Z2 = LatticeProcess.from_rows([[1, 1, 4, 0], [1, 1, 0, 0]])
    # by hand: stop now for 1, or ride to the branch for (4+0)/2 = 2
    assert snell_brute_force(lattice2, meyer2, Z2).value == max(
        Fraction(1), Fraction(4, 2)
    )

    const = LatticeProcess.from_rows([[2, 2, 2, 2]], terminal=[2])
    # every stopping time is optimal for a constant reward
    with pytest.raises(LatticeError):
        snell_brute_force(lattice, meyer, const)  # terminal must vanish
    const = LatticeProcess.from_rows([[2, 2, 2, 2]])
    result = snell_brute_force(lattice, meyer, const)
    n_times = count_stopping_times(lattice, meyer, Kind.LAMBDA)
    # TERMINAL reads 0, so exactly the always-finite times are optimal
    finite = [T for T in result.optimizers if TERMINAL not in T.assignment]
    assert result.value == 2 and len(finite) == len(result.optimizers) == n_times - 1


def test_guard_fires():
    # the guard bounds the list of optimizers, not the fold's value and counts
    sc = generate_instance(RandomInstanceParams(seed=1, epochs=3, max_paths=8))
    lattice, meyer = sc.lattice, sc.meyer
    const = LatticeProcess.from_rows([[2] * lattice.n_instants] * lattice.n_paths)
    n_times = count_stopping_times(lattice, meyer, Kind.LAMBDA)
    brute = snell_brute_force(lattice, meyer, const, guard=3)
    ways = brute.optimizer_count
    assert (brute.value, brute.stopping_time_count) == (2, n_times) and ways > 3
    with pytest.raises(EnumerationGuardError, match=f"^{ways} stopping times exceed the guard of 3$"):
        brute.optimizers
    assert len(snell_brute_force(lattice, meyer, const, guard=ways).optimizers) == ways


def test_martingale_predicates(chain, three_path_meyer):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    assert is_lambda_supermartingale(lattice, meyer, snell_envelope(lattice, meyer, Z))
    assert not is_lambda_supermartingale(
        lattice, meyer, LatticeProcess.from_rows([[1, 2, 3, 4]], terminal=[4])
    )

    lattice3, meyer3 = three_path_meyer
    M = closed_martingale(lattice3, meyer3, (Fraction(6), Fraction(2), Fraction(4)))
    assert is_lambda_martingale(lattice3, meyer3, M)
    assert is_lambda_supermartingale(lattice3, meyer3, M)


def test_martingale_definition_via_stopping_pairs(three_path_meyer):
    # instant-step definition agrees with the two-stopping-time definition
    lattice, meyer = three_path_meyer
    rng = random.Random(4)
    for _ in range(6):
        rows = tuple(
            tuple(Fraction(rng.randint(0, 5)) for _ in range(lattice.n_instants))
            for _ in range(lattice.n_paths)
        )
        from meyerstop.projection import project

        Z = project(lattice, meyer, LatticeProcess.from_rows(rows), Kind.LAMBDA)
        stepwise = is_lambda_supermartingale(lattice, meyer, Z)
        pairwise = True
        times = list(enumerate_stopping_times(lattice, meyer, Kind.LAMBDA))
        for S in times:
            for T in times:
                if not all(a <= b for a, b in zip(S.assignment, T.assignment)):
                    continue
                cond = conditional_expectation(
                    lattice, T.value_of(Z), field_at_time(lattice, meyer, S, Kind.LAMBDA)
                )
                if any(s < c for s, c in zip(S.value_of(Z), cond)):
                    pairwise = False
        assert stepwise == pairwise


def test_mertens_deterministic_numbers(chain):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    zbar = snell_envelope(lattice, meyer, Z)
    d = mertens_decompose(lattice, meyer, zbar)
    assert d.delta_a[1] == (Fraction(1),)
    assert d.delta_b[1] == (Fraction(2),)
    assert d.m.rows[0] == (3, 3, 3, 3) and d.m.columns[-1] == (Fraction(3),)
    assert d.a.rows[0] == (0, 0, 1, 1) and d.b.rows[0] == (0, 0, 2, 2)
    assert d.a.columns[-1] == (Fraction(1),) and d.b.columns[-1] == (Fraction(2),)


def test_mertens_branch_numbers(branch):
    lattice, meyer = branch
    Z = LatticeProcess.from_rows([[1, 1, 4, 0], [1, 1, 0, 0]])
    zbar = snell_envelope(lattice, meyer, Z)
    d = mertens_decompose(lattice, meyer, zbar)
    assert d.delta_b[1] == (Fraction(4), Fraction(0))
    assert d.delta_a[1] == (Fraction(0), Fraction(0))
    assert d.m.rows[0] == (2, 2, 4, 4) and d.m.rows[1] == (2, 2, 0, 0)
    assert is_lambda_martingale(lattice, meyer, d.m)


def test_mertens_flat_martingale(chain):
    # constant on instants, dropping only at TERMINAL: all loss sits in the
    # final predictable jump
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[3, 3, 3, 3]])
    zbar = snell_envelope(lattice, meyer, Z)
    d = mertens_decompose(lattice, meyer, zbar)
    assert d.a.rows[0] == (0, 0, 0, 0) and d.b.rows[0] == (0, 0, 0, 0)
    assert d.a_terminal_jump == (Fraction(3),)
    assert d.m.rows[0] == (3, 3, 3, 3)


def test_mertens_rejects_non_supermartingale(chain):
    lattice, meyer = chain
    with pytest.raises(LatticeError):
        mertens_decompose(lattice, meyer, LatticeProcess.from_rows([[0, 1, 2, 3]]))


def test_mertens_uniqueness_by_perturbation(chain):
    # moving jump mass between the predictable and the on-time compensator
    # breaks the reconstruction: their shifted readings differ at grid points
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    zbar = snell_envelope(lattice, meyer, Z)
    d = mertens_decompose(lattice, meyer, zbar)
    delta = Fraction(1)
    grid = Instant(1, AT).index
    a_perturbed = list(d.a.rows[0])
    b_perturbed = list(d.b.rows[0])
    for idx in range(grid, lattice.n_instants):
        a_perturbed[idx] += delta
        b_perturbed[idx] -= delta
    # the shifted reading of B at the grid point excludes its jump, so the
    # A/B swap shows up in the reconstruction right there
    b_shift_at_grid = b_perturbed[grid - 1]
    recon = d.m.rows[0][grid] - a_perturbed[grid] - b_shift_at_grid
    assert recon != zbar.rows[0][grid]


def test_lambda_entry_examples(chain):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    zbar = snell_envelope(lattice, meyer, Z)
    S = RandomInstant.constant(lattice, ZERO)
    entry = lambda_entry_time(lattice, Z, zbar, Fraction(1, 2), S)
    assert entry == RandomInstant.constant(lattice, Instant(0, INT))

    entry = lambda_entry_time(lattice, zbar, zbar, Fraction(1, 2), S)
    assert entry == S

    with pytest.raises(LatticeError):
        lambda_entry_time(lattice, Z, zbar, Fraction(1), S)


def test_delta_stop_examples(chain, branch):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    zbar = snell_envelope(lattice, meyer, Z)
    ds = delta_stop(lattice, meyer, Z, RandomInstant.constant(lattice, ZERO), zbar)
    assert ds.T == RandomInstant.constant(lattice, Instant(0, INT))
    assert expected_value(lattice, ds.T.value_of(Z)) == 3

    lattice2, meyer2 = branch
    Z2 = LatticeProcess.from_rows([[1, 1, 4, 0], [1, 1, 0, 0]])
    zbar2 = snell_envelope(lattice2, meyer2, Z2)
    ds = delta_stop(lattice2, meyer2, Z2, RandomInstant.constant(lattice2, ZERO), zbar2)
    # the reward touches its envelope at the branch point on both paths
    assert ds.T.assignment == (Instant(1, AT), Instant(1, AT))
    assert expected_value(lattice2, ds.T.value_of(Z2)) == 2

    # martingale-like case: envelope equals reward everywhere, so the stop is S
    const = LatticeProcess.from_rows([[2, 2, 2, 2]])
    flat = snell_envelope(lattice, meyer, const)
    for u in (ZERO, Instant(0, INT), Instant(1, INT)):
        S = RandomInstant.constant(lattice, u)
        assert delta_stop(lattice, meyer, const, S, flat).T == S


def test_sigma_stop_examples(chain):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    ss = sigma_stop(lattice, RandomInstant.constant(lattice, ZERO), decomposed(lattice, meyer, Z))
    assert ss.T == RandomInstant.constant(lattice, Instant(1, AT))
    assert ss.k_minus == frozenset({0})
    reading = from_divided_quadruple(lattice, ss.quadruple)
    assert reading == RandomInstant.constant(lattice, Instant(0, INT))
    assert expected_value(lattice, reading.value_of(Z)) == 3

    # reward touching its flat envelope only on the last interval: the only
    # compensator growth is the final predictable jump
    late = LatticeProcess.from_rows([[0, 0, 0, 5]])
    ss = sigma_stop(lattice, RandomInstant.constant(lattice, ZERO), decomposed(lattice, meyer, late))
    assert ss.T == RandomInstant.constant(lattice, TERMINAL)
    assert ss.k_minus == frozenset({0})
    reading = from_divided_quadruple(lattice, ss.quadruple)
    assert reading == RandomInstant.constant(lattice, Instant(1, INT))
    assert expected_value(lattice, reading.value_of(late)) == 5
    assert validate_divided(lattice, meyer, ss.quadruple).ok

    zero = LatticeProcess.from_rows([[0, 0, 0, 0]])
    ss = sigma_stop(lattice, RandomInstant.constant(lattice, ZERO), decomposed(lattice, meyer, zero))
    assert ss.T == RandomInstant.constant(lattice, TERMINAL)
    assert ss.k_plus == frozenset({0})
    # no-growth paths at TERMINAL sit in the on-time part, never in w_plus
    assert ss.quadruple.w == frozenset({0}) and ss.quadruple.w_plus == frozenset()
    assert validate_divided(lattice, meyer, ss.quadruple).ok


def test_check_optimality_examples(branch):
    lattice, meyer = branch
    Z = LatticeProcess.from_rows([[1, 1, 4, 0], [1, 1, 0, 0]])
    zbar = snell_envelope(lattice, meyer, Z)
    cert = check_optimality(
        lattice, meyer, Z, RandomInstant.constant(lattice, Instant(1, AT)), zbar
    )
    assert cert.condition_i and cert.condition_ii and cert.optimal

    cert = check_optimality(lattice, meyer, Z, RandomInstant.constant(lattice, ZERO), zbar)
    assert not cert.condition_i and not cert.optimal

    const = LatticeProcess.from_rows([[2, 2, 2, 2], [2, 2, 2, 2]])
    flat = snell_envelope(lattice, meyer, const)
    for T in enumerate_stopping_times(lattice, meyer, Kind.LAMBDA):
        if TERMINAL in T.assignment:
            continue
        assert check_optimality(lattice, meyer, const, T, flat).optimal


def test_enumerate_divided_count(chain):
    lattice, meyer = chain
    stops = enumerate_divided_stops(lattice, meyer)
    assert len(stops) == 5
    readings = {from_divided_quadruple(lattice, q).assignment[0] for q in stops}
    assert readings == {ZERO, Instant(0, INT), Instant(1, AT), Instant(1, INT), TERMINAL}
    for q in stops:
        assert validate_divided(lattice, meyer, q).ok


def test_divided_martingale_and_supermartingale_sampling(three_path_meyer):
    lattice, meyer = three_path_meyer
    M = closed_martingale(lattice, meyer, (Fraction(6), Fraction(2), Fraction(4)))
    from meyerstop.projection import project

    raw = LatticeProcess.from_rows(
        [[3, 1, 0, 2, 1, 0], [0, 1, 2, 0, 1, 0], [0, 1, 2, 4, 1, 0]]
    )
    Zsup = snell_envelope(lattice, meyer, project(lattice, meyer, raw, Kind.LAMBDA))
    for S in enumerate_stopping_times(lattice, meyer, Kind.LAMBDA):
        part_s = field_at_time(lattice, meyer, S, Kind.LAMBDA)
        # the canonical divided stops from S: one per time of the tree within T >= S
        for idx in times_within(lattice, meyer, Kind.LAMBDA, _between(lattice, S)):
            form = from_divided_quadruple(lattice, _canonical_quadruple(lattice, idx))
            cond_m = conditional_expectation(lattice, form.value_of(M), part_s)
            assert tuple(cond_m) == S.value_of(M)
            cond_z = conditional_expectation(lattice, form.value_of(Zsup), part_s)
            assert all(z >= c for z, c in zip(S.value_of(Zsup), cond_z))


def test_minimal_dominance(three_path_meyer):
    lattice, meyer = three_path_meyer
    rng = random.Random(9)
    fields = field_partitions(lattice, meyer, Kind.LAMBDA)
    from meyerstop.projection import project

    raw = LatticeProcess.from_rows(
        [[3, 1, 0, 2, 1, 0], [0, 1, 2, 0, 1, 0], [0, 1, 2, 4, 1, 0]]
    )
    Z = project(lattice, meyer, raw, Kind.LAMBDA)
    zbar = snell_envelope(lattice, meyer, Z)
    for _ in range(15):
        # random supermartingale dominating Z, built backwards with bumps
        cols = [None] * lattice.n_instants
        nxt = [Fraction(0)] * lattice.n_paths
        for idx in range(lattice.n_instants - 1, -1, -1):
            cont = conditional_expectation(lattice, nxt, fields[idx])
            col = [max(Z.columns[idx][p], cont[p]) for p in range(lattice.n_paths)]
            for block in fields[idx]:
                bump = Fraction(rng.randint(0, 2))
                for p in block:
                    col[p] += bump
            cols[idx] = col
            nxt = col
        Y = LatticeProcess.from_rows(
            tuple(
                tuple(cols[idx][p] for idx in range(lattice.n_instants))
                for p in range(lattice.n_paths)
            )
        )
        assert is_lambda_supermartingale(lattice, meyer, Y)
        for p in range(lattice.n_paths):
            for idx in range(lattice.n_instants):
                assert Y.columns[idx][p] >= zbar.columns[idx][p]


def test_smallest_largest_branch(branch):
    lattice, meyer = branch
    Z = LatticeProcess.from_rows([[1, 1, 4, 0], [1, 1, 0, 0]])
    result = sandwich(lattice, meyer, Z)
    assert result.smallest.assignment == (Instant(1, AT), Instant(1, AT))
    assert result.largest.assignment == (Instant(1, AT), TERMINAL)
    assert snell_brute_force(lattice, meyer, Z).optimizer_count == 3


def test_smallest_largest_preconditions(chain, branch_blind):
    lattice, meyer = chain
    Z = LatticeProcess.from_rows([[1, 3, 2, 0]])
    with pytest.raises(PreconditionError, match="is_right_usc_in_expectation"):
        sandwich(lattice, meyer, Z)

    lattice2, blind = branch_blind
    flat = LatticeProcess.from_rows([[1, 1, 0, 0], [1, 1, 0, 0]])
    with pytest.raises(PreconditionError, match="optional structure"):
        sandwich(lattice2, blind, flat)


def test_smallest_largest_flat(chain):
    lattice, meyer = chain
    const = LatticeProcess.from_rows([[2, 2, 2, 0]])
    result = sandwich(lattice, meyer, const)
    assert result.smallest == RandomInstant.constant(lattice, ZERO)
    assert result.largest == RandomInstant.constant(lattice, Instant(1, AT))


@pytest.mark.parametrize("seed", [1, 6, 14])
def test_enumerated_divided_stops_are_valid(seed):
    sc = generate_instance(RandomInstanceParams(seed=seed, epochs=2, max_paths=5))
    stops = enumerate_divided_stops(sc.lattice, sc.meyer)
    count = count_stopping_times(sc.lattice, sc.meyer, Kind.LAMBDA)
    assert len(stops) == count
    for q in stops:
        assert validate_divided(sc.lattice, sc.meyer, q).ok
        assert q.w_minus == frozenset()


@pytest.mark.parametrize("kind", list(Kind))
def test_enumeration_count_matches_iteration(kind, three_path_meyer):
    lattice, meyer = three_path_meyer
    times = list(enumerate_stopping_times(lattice, meyer, kind))
    assert len(times) == count_stopping_times(lattice, meyer, kind)
    assert len({t.assignment for t in times}) == len(times)
    from meyerstop.lattice import is_lambda_stopping_time

    for T in times:
        assert is_lambda_stopping_time(lattice, meyer, T, kind)


def plain_maximum(lattice, meyer, process, kind=Kind.LAMBDA, lower=None):
    """E[Z_T] maximized by visiting every stopping time T >= lower, with its
    maximizers; `lower` filters the unrestricted iteration."""
    probs = lattice.probabilities
    low = (0,) * lattice.n_paths if lower is None else lower.indices
    best, argmax = None, []
    for idx in iter_stopping_index_tuples(lattice, meyer, kind):
        if any(i < lo for i, lo in zip(idx, low)):
            continue
        value = sum((probs[p] * process.columns[i][p] for p, i in enumerate(idx)), Fraction(0))
        if best is None or value > best:
            best, argmax = value, [idx]
        elif value == best:
            argmax.append(idx)
    return best, sorted(argmax)


def memoized_maximum(lattice, meyer, process, kind=Kind.LAMBDA, lower=None):
    opt = _maximum(lattice, meyer, process, kind, _between(lattice, lower))
    argmax = sorted(opt.maximizers())
    low = (0,) * lattice.n_paths if lower is None else lower.indices
    listed = iter_stopping_index_tuples(lattice, meyer, kind)
    assert opt.total == sum(all(i >= lo for i, lo in zip(idx, low)) for idx in listed)
    assert opt.ways == len(argmax)
    return opt.value, argmax


@pytest.mark.parametrize("seed", range(24))
def test_memoized_oracle_matches_plain_maximization(seed):
    sc = generate_instance(
        RandomInstanceParams(
            seed=seed,
            epochs=1 + seed % 3,
            max_paths=2 + seed % 5,
            regime=REGIMES[seed % 3],
        )
    )
    lattice, meyer, Z = sc.lattice, sc.meyer, sc.processes["Z"]
    rng = random.Random(seed)
    times = list(iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA))
    lowers = [None, RandomInstant(rng.choice(times), lattice.n_instants)]
    raw = LatticeProcess.from_rows(
        [
            [
                Fraction(rng.randint(0, 6), rng.randint(1, 3))
                for _ in range(lattice.n_instants)
            ]
            for _ in range(lattice.n_paths)
        ],
        terminal=[rng.randint(0, 6) for _ in range(lattice.n_paths)],
    )
    for lower in lowers:
        for kind in Kind:
            for process in (Z, raw):
                assert memoized_maximum(lattice, meyer, process, kind, lower) == (
                    plain_maximum(lattice, meyer, process, kind, lower)
                )
        brute = snell_brute_force(lattice, meyer, Z)
        assert brute.stopping_time_count == len(times)
        assert brute.optimizer_count == len(brute.optimizers)
        assert [T.indices for T in brute.optimizers] == plain_maximum(
            lattice, meyer, Z
        )[1]


def test_memoized_oracle_all_ties(chain, three_path_meyer):
    # a constant reward ties every time that never reaches TERMINAL
    for lattice, meyer in (chain, three_path_meyer):
        const = LatticeProcess.from_rows([[2] * lattice.n_instants] * lattice.n_paths)
        value, argmax = memoized_maximum(lattice, meyer, const)
        assert (value, argmax) == plain_maximum(lattice, meyer, const)
        finite = [
            idx
            for idx in iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA)
            if lattice.n_instants not in idx
        ]
        assert value == 2 and argmax == sorted(finite)
    lattice, meyer = chain
    n_times = count_stopping_times(lattice, meyer, Kind.LAMBDA)
    const = LatticeProcess.from_rows([[2, 2, 2, 2]])
    assert len(memoized_maximum(lattice, meyer, const)[1]) == n_times - 1
