"""Table-driven checks against the per-stopping-time code they replace.

The certificate, the universal-signal rows, `solve_representation` and the
divided-stop enumeration read tables built once per call.  The oracles here
are the direct per-stop computations those tables stand for; they live only
in the tests.  The mutation tests show that each rewritten check can still
report a failure, and the last test that value-only checks never build the
optimizers.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from meyerstop import checks, enumeration, representation
from meyerstop.enumeration import iter_stopping_index_tuples
from meyerstop.lattice import (
    AT,
    TERMINAL,
    DividedQuadruple,
    Instant,
    Kind,
    LatticeProcess,
    RandomInstant,
    conditional_expectation,
    field_partitions,
    is_lambda_stopping_time,
    to_divided_quadruple,
    validate_divided,
)
from meyerstop.representation import (
    RepresentationError,
    forward_evaluate,
    g_root,
    solve_representation,
    stopping_value,
    universal_signal_check,
)
from meyerstop.scenario import (
    OPTIONAL_EXTREME,
    REGIMES,
    RandomInstanceParams,
    generate_instance,
)
from meyerstop.snell import (
    PreconditionError,
    check_optimality,
    enumerate_divided_stops,
    is_lambda_martingale,
    martingale_reach,
    mertens_decompose,
    snell_brute_force,
    snell_envelope,
    stopped_process,
)


def small_family(count=60):
    for seed in range(count):
        yield seed, generate_instance(
            RandomInstanceParams(
                seed=seed,
                epochs=1 + seed % 3,
                max_paths=2 + seed % 5,
                regime=REGIMES[seed % 3],
            )
        )


def repr_family(count):
    for seed in range(count):
        yield seed, generate_instance(
            RandomInstanceParams(
                seed=seed,
                epochs=1 + seed % 2,
                max_paths=2 + seed % 4,
                regime=REGIMES[seed % 3],
            )
        )


def odd_power(sc):
    """The scenario with g = a + b * ell**3 in place of a + b * ell."""
    return dataclasses.replace(sc, g_spec={**sc.g_spec, "kind": "odd_power", "power": 3})


def same(a, b) -> bool:
    """Equal values of one type; floats equal bit for bit."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


# (a) certificates -----------------------------------------------------------


def plain_is_martingale(lattice, meyer, process) -> bool:
    """Each instant slice equals its conditional continuation, TERMINAL included."""
    n = lattice.n_instants
    for idx, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA)):
        nxt = process.terminal if idx == n - 1 else process.slice_at(idx + 1)
        if conditional_expectation(lattice, nxt, part) != process.slice_at(idx):
            return False
    return True


def bent_martingale(sc, rng):
    """The Mertens martingale of Z's envelope with a few atoms moved up or
    down, so that its reach breaks on both sides of the martingale."""
    zbar = snell_envelope(sc.lattice, sc.meyer, sc.processes["Z"])
    m = mertens_decompose(sc.lattice, sc.meyer, zbar).m
    for idx, part in enumerate(field_partitions(sc.lattice, sc.meyer, Kind.LAMBDA)):
        for atom in part:
            if rng.random() < 0.15:
                m = _bump_atom(m, idx, atom, rng.choice((-1, 1)))
    return m


def test_reach_certificate_matches_the_stopped_martingale():
    verdicts = {True: 0, False: 0}
    regimes = set()
    for seed, sc in small_family():
        lattice, meyer = sc.lattice, sc.meyer
        regimes.add(REGIMES[seed % 3])
        rewards = [sc.processes["L"], sc.processes["Z"], None]
        for process in rewards:
            if process is None:
                zbar = bent_martingale(sc, random.Random(seed))
            else:
                zbar = snell_envelope(lattice, meyer, process)
            reach = martingale_reach(lattice, meyer, zbar)
            for k, idx in enumerate(iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA)):
                U = RandomInstant.from_indices(lattice, idx)
                stopped = plain_is_martingale(lattice, meyer, stopped_process(lattice, zbar, U))
                assert all(u <= r for u, r in zip(idx, reach)) == stopped, (seed, idx)
                if process is not None and k % 16 == 0:
                    cert = check_optimality(lattice, meyer, process, U, zbar)
                    assert cert.condition_ii == stopped
                    assert cert.condition_i == (U.value_of(process) == U.value_of(zbar))
                verdicts[stopped] += 1
    assert regimes == set(REGIMES)
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts


def test_reach_of_a_martingale_is_the_whole_chain():
    for seed, sc in small_family(12):
        zbar = snell_envelope(sc.lattice, sc.meyer, sc.processes["Z"])
        m = mertens_decompose(sc.lattice, sc.meyer, zbar).m
        n = sc.lattice.n_instants
        assert martingale_reach(sc.lattice, sc.meyer, m) == (n,) * sc.lattice.n_paths
        assert is_lambda_martingale(sc.lattice, sc.meyer, m)


def _bump_atom(process, idx, atom, delta):
    rows = [list(row) for row in process.values]
    for p in atom:
        rows[p][idx] += delta
    return LatticeProcess.from_rows(rows, terminal=process.terminal)


@pytest.mark.parametrize("shift", [1, -1])
def test_optimality_oracle_reports_a_shifted_reach(shift, monkeypatch):
    real = checks.martingale_reach

    def shifted(lattice, meyer, zbar):
        n = lattice.n_instants
        return tuple(min(n, max(0, r + shift)) for r in real(lattice, meyer, zbar))

    monkeypatch.setattr(checks, "martingale_reach", shifted)
    reported = [
        seed
        for seed, sc in small_family(30)
        if checks.check_optimality_oracle(sc.lattice, sc.meyer, sc.processes["Z"])
    ]
    assert len(reported) >= 5, reported


def test_optimality_oracle_reports_a_corrupted_envelope_cell(monkeypatch):
    real = checks.snell_envelope
    reported = 0
    for seed, sc in small_family(12):
        lattice, meyer, Z = sc.lattice, sc.meyer, sc.processes["Z"]
        assert checks.check_optimality_oracle(lattice, meyer, Z) is None
        fields = field_partitions(lattice, meyer, Kind.LAMBDA)
        for idx, part in enumerate(fields):
            for atom in part:
                monkeypatch.setattr(
                    checks,
                    "snell_envelope",
                    lambda *a, idx=idx, atom=atom: _bump_atom(real(*a), idx, atom, 1),
                )
                if checks.check_optimality_oracle(lattice, meyer, Z):
                    reported += 1
                    break
            else:
                continue
            break
        monkeypatch.setattr(checks, "snell_envelope", real)
    assert reported == 12


# (b) universal signal -------------------------------------------------------


def plain_signal_rows(problem, grid):
    """Brute force and optimizer count by one `stopping_value` per stop."""
    X = forward_evaluate(problem)
    stops = enumerate_divided_stops(problem.lattice, problem.meyer)
    rows = []
    for ell in grid:
        values = [stopping_value(problem, ell, q, X=X, validate=False) for q in stops]
        best = max(values)
        rows.append((best, sum(1 for v in values if v == best)))
    return rows


@pytest.mark.parametrize("monotone", [False, True])
def test_signal_rows_match_plain_maximization(monotone):
    compared = 0
    for seed, sc in repr_family(40):
        if monotone:
            sc = odd_power(sc)
        problem = sc.build_problem()
        try:
            report = universal_signal_check(problem, sc.ell_grid)
        except PreconditionError:
            continue
        plain = plain_signal_rows(problem, sc.ell_grid)
        for row, (best, count) in zip(report.rows, plain, strict=True):
            assert same(row.brute_force, best), (seed, row.ell)
            assert row.optimizer_count == count, (seed, row.ell)
        compared += 1
    assert compared >= 15, compared


def test_signal_check_reports_a_corrupted_level_passage(monkeypatch):
    sc = generate_instance(RandomInstanceParams(seed=8, epochs=2, max_paths=4))
    problem = sc.build_problem()
    assert checks.check_universal_signal(problem, sc.ell_grid) is None
    real = representation.stopping_value
    calls = []

    def corrupted(*args, **kwargs):
        calls.append(1)
        value = real(*args, **kwargs)
        return value + Fraction(1, 1000) if len(calls) == 3 else value

    monkeypatch.setattr(representation, "stopping_value", corrupted)
    message = checks.check_universal_signal(problem, sc.ell_grid)
    assert message is not None and message.startswith(f"level {sc.ell_grid[1]}:"), message


# (c) solve ------------------------------------------------------------------


def plain_solve(problem):
    """Minimum window root per (instant, atom), one term list per candidate."""
    lattice, meyer, g, mu, X = problem.lattice, problem.meyer, problem.g, problem.mu, problem.X
    affine = g.kind == "affine"
    n, probs = lattice.n_instants, lattice.probabilities
    columns = [[None] * lattice.n_paths for _ in range(n)]
    for u, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA)):
        for block in part:
            lower = RandomInstant.from_indices(
                lattice, [u + 1 if p in block else n for p in range(lattice.n_paths)]
            )
            best = None
            for cand in iter_stopping_index_tuples(
                lattice, meyer, Kind.LAMBDA, lower=lower, scope=block
            ):
                terms = []
                rhs = Fraction(0)
                for p in block:
                    rhs += probs[p] * X.values[p][u]
                    if cand[p] < n:
                        rhs -= probs[p] * X.values[p][cand[p]]
                    for w in range(u, min(cand[p], n)):
                        m = mu.mass[p][w]
                        if m != 0:
                            terms.append(
                                (probs[p] * m, g.a[p][w], g.b[p][w])
                                if affine
                                else (probs[p] * m, g.funcs[p][w])
                            )
                if not terms:
                    continue
                root = g_root(terms, rhs, None if affine else g.tolerance)
                if best is None or root < best:
                    best = root
            for p in block:
                columns[u][p] = Fraction(0) if best is None else best
    return tuple(tuple(columns[u][p] for u in range(n)) for p in range(lattice.n_paths))


@pytest.mark.parametrize("monotone", [False, True])
def test_solve_matches_the_term_list_loop(monotone):
    compared = 0
    for seed, sc in repr_family(30):
        if monotone:
            sc = odd_power(sc)
        problem = sc.build_problem()
        problem = problem.with_X(forward_evaluate(problem))
        try:
            L = solve_representation(problem, verify_tolerance=1e-3)
        except RepresentationError:
            # the affine forward check is exact and never fails here
            assert monotone, seed
            continue
        plain = plain_solve(problem)
        for row, plain_row in zip(L.values, plain, strict=True):
            assert all(same(a, b) for a, b in zip(row, plain_row, strict=True)), seed
        compared += 1
    assert compared >= 20, compared


# (d) divided stops ----------------------------------------------------------


def plain_quadruple(T):
    """Grid and TERMINAL stops on time, interval stops just after their grid point."""
    grid, w, w_plus = [], set(), set()
    for p, u in enumerate(T.assignment):
        if u is TERMINAL or u.tag == AT:
            grid.append(u)
            w.add(p)
        else:
            grid.append(Instant(u.epoch, AT))
            w_plus.add(p)
    return DividedQuadruple(
        T=RandomInstant(assignment=tuple(grid)),
        w_minus=frozenset(),
        w=frozenset(w),
        w_plus=frozenset(w_plus),
    )


def test_divided_stops_are_lambda_stopping_times():
    for seed, sc in small_family():
        lattice, meyer = sc.lattice, sc.meyer
        tuples = sorted(iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA))
        times = [RandomInstant.from_indices(lattice, idx) for idx in tuples]
        assert all(is_lambda_stopping_time(lattice, meyer, T) for T in times), seed
        stops = enumerate_divided_stops(lattice, meyer)
        assert stops == [plain_quadruple(T) for T in times], seed
        assert stops == [to_divided_quadruple(lattice, meyer, T) for T in times], seed
        for q in stops[::16]:
            assert validate_divided(lattice, meyer, q).ok, (seed, q)


# lazy optimizers ------------------------------------------------------------


def test_value_only_checks_build_no_optimizer(monkeypatch):
    sc = generate_instance(
        RandomInstanceParams(seed=62, epochs=4, max_paths=6, regime=OPTIONAL_EXTREME)
    )
    lattice, meyer = sc.lattice, sc.meyer
    const = LatticeProcess.from_rows([[2] * lattice.n_instants] * lattice.n_paths)
    built, walks = [], []
    from_indices = RandomInstant.from_indices.__func__
    walk = enumeration._walk

    def counting_from_indices(cls, lattice, indices):
        built.append(indices)
        return from_indices(cls, lattice, indices)

    def counting_walk(steps, active, keep=None):
        if keep is not None:
            walks.append(keep)
        return walk(steps, active, keep)

    monkeypatch.setattr(RandomInstant, "from_indices", classmethod(counting_from_indices))
    monkeypatch.setattr(enumeration, "_walk", counting_walk)
    assert checks.check_snell_oracle(lattice, meyer, const) is None
    assert checks.check_optimality_oracle(lattice, meyer, const) is None
    assert built == [] and walks == []

    brute = snell_brute_force(lattice, meyer, const)
    assert built == [] and walks == []
    assert len(brute.optimizers) > 100
    assert len(built) == len(brute.optimizers) and len(walks) == 1
    assert brute.optimizers is brute.optimizers
