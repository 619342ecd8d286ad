"""Table-driven checks against the per-stopping-time code they replace.

The universal-signal rows and the divided-stop enumeration read tables
built once per call; the certificate, the sandwich, the relaxation maximum,
the sequential USC forms and the Dinkelbach steps of `solve_representation`
are memoized folds (restricted to allowed cells) or per-atom sums.
The oracles here are the direct per-stop computations those stand for; they
live only in the tests.  The mutation tests show that each rewritten check
can still report a failure, and the lazy-optimizer tests that value-only
checks never build the optimizers nor list every stopping time.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import build_lattice, full_divided_stops
from meyerstop import Scenario, checks, cli, enumeration, projection, representation
from meyerstop.enumeration import (
    DEFAULT_GUARD,
    _between,
    _cells,
    _maximum,
    iter_stopping_index_tuples,
)
from meyerstop.lattice import (
    AT,
    INT,
    TERMINAL,
    DividedQuadruple,
    FilteredLattice,
    Instant,
    Kind,
    LatticeError,
    LatticeProcess,
    MeyerStructure,
    PathRecord,
    RandomInstant,
    conditional_expectation,
    divided_value,
    field_at_time,
    field_partitions,
    from_divided_quadruple,
    is_lambda_stopping_time,
    is_measurable,
    make_partition,
    to_divided_quadruple,
    validate_divided,
)
from meyerstop.projection import (
    Side,
    UscVerdict,
    check_usc_sequence_equivalence,
    envelope,
)
from meyerstop.representation import (
    forward_evaluate,
    level_passage,
    solve_representation,
    stopping_value,
    universal_signal_check,
)
from meyerstop.scenario import (
    OPTIONAL_EXTREME,
    REGIMES,
    RandomInstanceParams,
    generate_instance,
    render_scenario,
)
from meyerstop.snell import (
    PreconditionError,
    check_optimality,
    delta_stop,
    enumerate_divided_stops,
    expected_value,
    is_lambda_martingale,
    lambda_entry_time,
    martingale_reach,
    mertens_decompose,
    sigma_stop,
    smallest_largest_optimal,
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
    """Equal values of one type."""
    return type(a) is type(b) and a == b


# (a) certificates -----------------------------------------------------------


def plain_is_martingale(lattice, meyer, process) -> bool:
    """Each instant slice equals its conditional continuation, TERMINAL included."""
    for idx, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA)):
        nxt = process.columns[idx + 1]
        if conditional_expectation(lattice, nxt, part) != process.columns[idx]:
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
                U = RandomInstant(idx, lattice.n_instants)
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
    rows = [list(row) for row in process.rows]
    for p in atom:
        rows[p][idx] += delta
    return LatticeProcess.from_rows(rows, terminal=process.columns[-1])


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


def plain_optimality_oracle(lattice, meyer, process, cells=None):
    """The message of every stopping time where the certificate verdict
    differs from brute-force optimality, one per stop; the envelope and the
    reach are read through `checks`, so a patched one shows here too.  A set
    of (path, index) `cells`, if given, stands for the certified cells."""
    zbar = checks.snell_envelope(lattice, meyer, process)
    brute = snell_brute_force(lattice, meyer, process)
    reach = checks.martingale_reach(lattice, meyer, zbar)
    probs = lattice.probabilities
    holds, worth = [], []
    for p in range(lattice.n_paths):
        z = [column[p] for column in process.columns]
        env = [column[p] for column in zbar.columns]
        holds.append(
            [
                (p, i) in cells if cells is not None else z[i] == env[i] and i <= reach[p]
                for i in range(len(z))
            ]
        )
        worth.append([probs[p] * v for v in z])
    for idx in iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA):
        optimal = all(holds[p][i] for p, i in enumerate(idx))
        achieved = sum((worth[p][i] for p, i in enumerate(idx)), Fraction(0))
        if optimal != (achieved == brute.value):
            U = RandomInstant(idx, lattice.n_instants)
            yield (
                f"certificate says {optimal} but value {achieved} vs "
                f"optimum {brute.value} at {U.assignment}"
            )


@pytest.mark.parametrize("mutant", ["none", "reach+1", "reach-1", "envelope"])
def test_certificate_fold_matches_the_stop_loop(mutant, monkeypatch):
    real_reach, real_envelope = checks.martingale_reach, checks.snell_envelope
    verdicts = {True: 0, False: 0}
    for seed, sc in small_family():
        lattice, meyer, Z = sc.lattice, sc.meyer, sc.processes["Z"]
        if mutant.startswith("reach"):
            shift = int(mutant[5:])
            monkeypatch.setattr(
                checks,
                "martingale_reach",
                lambda *a: tuple(
                    min(lattice.n_instants, max(0, r + shift)) for r in real_reach(*a)
                ),
            )
        elif mutant == "envelope":
            rng = random.Random(seed)
            idx = rng.randrange(lattice.n_instants)
            atom = rng.choice(field_partitions(lattice, meyer, Kind.LAMBDA)[idx])
            monkeypatch.setattr(
                checks, "snell_envelope", lambda *a: _bump_atom(real_envelope(*a), idx, atom, 1)
            )
        disagreements = set(plain_optimality_oracle(lattice, meyer, Z))
        message = checks.check_optimality_oracle(lattice, meyer, Z)
        assert (message is None) == (not disagreements), (seed, message)
        # the named witness is one of the loop's disagreements
        assert message is None or message in disagreements, (seed, message)
        verdicts[message is None] += 1
    if mutant == "none":
        assert verdicts == {True: 60, False: 0}
    else:
        assert min(verdicts.values()) >= 5, verdicts


def test_certificate_fold_matches_the_stop_loop_on_drawn_cells(monkeypatch):
    # cells drawn around a few optimizers, with a cell or two moved, reach
    # the case where the certified times include an optimizer and are as
    # many as the optimizers, yet not all of them attain the optimum
    balanced = 0
    for seed, sc in small_family():
        lattice, meyer, Z = sc.lattice, sc.meyer, sc.processes["Z"]
        rng = random.Random(seed)
        brute = snell_brute_force(lattice, meyer, Z)
        optimizers = [T.indices for T in brute.optimizers]
        for _ in range(12):
            picked = rng.sample(optimizers, min(len(optimizers), rng.randint(1, 3)))
            cells = {(p, i) for idx in picked for p, i in enumerate(idx)}
            for _ in range(rng.randint(0, 2)):
                cells.discard(rng.choice(sorted(cells)))
            for _ in range(rng.randint(0, 2)):
                cells.add((rng.randrange(lattice.n_paths), rng.randrange(lattice.n_instants + 1)))
            table = _cells(lattice, lambda p, i: (p, i) in cells)
            monkeypatch.setattr(checks, "_cells", lambda *args: table)
            disagreements = set(plain_optimality_oracle(lattice, meyer, Z, cells))
            message = checks.check_optimality_oracle(lattice, meyer, Z)
            assert (message is None) == (not disagreements), (seed, message)
            assert message is None or message in disagreements, (seed, message)
            cert = _maximum(lattice, meyer, Z, Kind.LAMBDA, table)
            balanced += (cert.value, cert.total) == (brute.value, brute.optimizer_count) and bool(
                disagreements
            )
    assert balanced >= 3, balanced


def test_restricted_folds_match_filtering_the_listed_stops():
    seen = {"empty": 0, "part": 0, "all": 0}
    for seed, sc in small_family():
        lattice, meyer, Z = sc.lattice, sc.meyer, sc.processes["Z"]
        n, paths = lattice.n_instants, lattice.n_paths
        rng = random.Random(seed)
        stops = sorted(iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA))
        worth = {
            idx: expected_value(lattice, RandomInstant(idx, n).value_of(Z)) for idx in stops
        }
        tables = [_between(lattice, None)]
        for _ in range(4):
            lo = [rng.randint(0, n) for _ in range(paths)]
            hi = [rng.randint(x, n) for x in lo]
            tables.append(_between(lattice, RandomInstant(lo, n), RandomInstant(hi, n)))
            tables.append(_cells(lattice, lambda p, i: rng.random() < 0.85))
        for allowed in tables:
            kept = [
                idx for idx in stops if all(allowed[i] >> p & 1 for p, i in enumerate(idx))
            ]
            opt = _maximum(lattice, meyer, Z, Kind.LAMBDA, allowed)
            assert opt.total == len(kept), seed
            steps = enumeration._Decisions(lattice, meyer, Kind.LAMBDA, allowed)
            assert sorted(enumeration._walk(steps, 0, (1 << paths) - 1)) == kept, seed
            if not kept:
                assert (opt.value, opt.ways, list(opt.maximizers())) == (None, 0, []), seed
                seen["empty"] += 1
                continue
            best = max(worth[idx] for idx in kept)
            argmax = [idx for idx in kept if worth[idx] == best]
            assert (opt.value, opt.ways) == (best, len(argmax)), seed
            assert sorted(opt.maximizers()) == argmax, seed
            seen["part" if len(kept) < len(stops) else "all"] += 1
    assert min(seen.values()) >= 20, seen


# (b) universal signal -------------------------------------------------------


def plain_stopping_value(problem, ell, tau, X):
    """`stopping_value` by the per-path accrual loop: each path's reading of
    X plus the g(ell)-mass accrued before its cutoff, times its probability."""
    g, mass, s = problem.g, problem.mu.mass, ell**problem.g.power
    total = Fraction(0)
    for p, (read, cutoff) in enumerate(plain_cutoffs(problem.lattice, tau)):
        accrued = X.columns[read][p]
        for w in range(cutoff):
            if mass[p][w] != 0:
                accrued += (g.a[p][w] + g.b[p][w] * s) * mass[p][w]
        total += problem.lattice.probabilities[p] * accrued
    return total


@pytest.mark.parametrize("monotone", [False, True])
def test_stopping_value_matches_the_per_path_accrual_loop(monotone):
    seen = {"stops": 0, "just before": 0}
    for seed, sc in repr_family(12):
        if monotone:
            sc = odd_power(sc)
        problem = sc.build_problem()
        X = forward_evaluate(problem)
        fixed = problem.with_X(X)
        for q in full_divided_stops(sc.lattice, sc.meyer):
            for ell in (sc.ell_grid[0], sc.ell_grid[-1], Fraction(-5, 2)):
                value = stopping_value(fixed, ell, q)
                assert same(value, plain_stopping_value(problem, ell, q, X)), (seed, q, ell)
            seen["stops"] += 1
            seen["just before"] += bool(q.w_minus)
    assert seen["stops"] > 500 and seen["just before"] > 100, seen


def plain_signal_rows(problem, grid):
    """Brute force and optimizer count by one per-path accrual loop per stop."""
    X = forward_evaluate(problem)
    stops = enumerate_divided_stops(problem.lattice, problem.meyer)
    rows = []
    for ell in grid:
        values = [plain_stopping_value(problem, ell, q, X) for q in stops]
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
        # at 7/3 the level s = ell**power has denominator 3 or 27, which the
        # integer scoring of each level must scale away; -5/2 is a level s < 0
        grid = (*sc.ell_grid, Fraction(7, 3), Fraction(-5, 2))
        try:
            report = universal_signal_check(problem, grid)
        except PreconditionError:
            continue
        plain = plain_signal_rows(problem, grid)
        for row, (best, count) in zip(report.rows, plain, strict=True):
            assert same(row.brute_force, best), (seed, row.ell)
            assert row.optimizer_count == count, (seed, row.ell)
        compared += 1
    assert compared >= 15, compared


def test_signal_passages_match_stopping_value():
    # the check scores each passage on its flat cells; `stopping_value`
    # reads the same stop through its divided quadruple and `_accrued`
    compared = 0
    for seed, sc in repr_family(40):
        for kind in ("affine", "odd_power"):
            scenario = odd_power(sc) if kind == "odd_power" else sc
            problem = scenario.build_problem()
            grid = (Fraction(-5, 2), Fraction(7, 3))
            try:
                report = universal_signal_check(problem, grid)
            except PreconditionError:
                continue
            fixed = problem.with_X(forward_evaluate(problem))
            S = representation._levels(problem.g, problem.L)
            for row in report.rows:
                s = row.ell**problem.g.power
                values = (row.value_variant_1, row.value_variant_2)
                for variant, value in enumerate(values, start=1):
                    passage = level_passage(sc.lattice, sc.meyer, S, s, variant)
                    expected = stopping_value(fixed, row.ell, passage.quadruple)
                    assert same(value, expected), (seed, kind, row.ell, variant)
                    compared += 1
    assert compared >= 300, compared


def test_signal_check_reports_a_corrupted_level_passage(monkeypatch):
    sc = generate_instance(RandomInstanceParams(seed=8, epochs=2, max_paths=4))
    problem = sc.build_problem()
    assert checks.check_universal_signal(problem, sc.ell_grid) is None
    ell = sc.ell_grid[1]
    # variant 2 stops at once or never, whichever misses the optimum there
    fixed = problem.with_X(forward_evaluate(problem))
    best = universal_signal_check(problem, sc.ell_grid).rows[1].brute_force
    n, paths = sc.lattice.n_instants, sc.lattice.n_paths
    at_once, never = RandomInstant((0,) * paths, n), RandomInstant((n,) * paths, n)
    bad = next(T for T in (at_once, never) if stopping_value(fixed, ell, T) != best)
    real = representation._passage

    def corrupted(lattice, L, level, variant):
        if (level, variant) != (ell**problem.g.power, 2):
            return real(lattice, L, level, variant)
        return bad.indices

    monkeypatch.setattr(representation, "_passage", corrupted)
    message = checks.check_universal_signal(problem, sc.ell_grid)
    assert message is not None and message.startswith(f"level {ell}:"), message
    bad_value = stopping_value(fixed, ell, bad)
    assert message == f"level {ell}: passage values {best}/{bad_value} vs brute force {best}"


# (c) solve ------------------------------------------------------------------


def cube_root(s: Fraction):
    """The real cube root of s: a Fraction if s is a rational cube, else a float."""
    exact = Fraction(round(abs(s.numerator) ** (1 / 3)), round(s.denominator ** (1 / 3)))
    if exact**3 == abs(s):
        return exact if s >= 0 else -exact
    root = float(abs(s)) ** (1 / 3)
    return root if s > 0 else -root


def plain_solve(problem):
    """Minimum window root per (instant, atom), one term list per candidate:
    sum c * (a + b * ell**power) = rhs in closed form."""
    lattice, meyer, g, mu, X = problem.lattice, problem.meyer, problem.g, problem.mu, problem.X
    n, probs = lattice.n_instants, lattice.probabilities
    columns = [[None] * lattice.n_paths for _ in range(n)]
    for u, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA)):
        for block in part:
            lower = RandomInstant(
                tuple(u + 1 if p in block else n for p in range(lattice.n_paths)), n
            )
            best = None
            # `lower` pins the paths outside the block to TERMINAL
            for cand in iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA, lower=lower):
                terms = []
                rhs = Fraction(0)
                for p in block:
                    rhs += probs[p] * X.columns[u][p]
                    if cand[p] < n:
                        rhs -= probs[p] * X.columns[cand[p]][p]
                    for w in range(u, min(cand[p], n)):
                        m = mu.mass[p][w]
                        if m != 0:
                            terms.append((probs[p] * m, g.a[p][w], g.b[p][w]))
                if not terms:
                    continue
                s = (rhs - sum(c * a for c, a, _ in terms)) / sum(c * b for c, _, b in terms)
                if best is None or s < best:
                    best = s
            best = Fraction(0) if best is None else best
            for p in block:
                columns[u][p] = best if g.power == 1 else cube_root(best)
    return tuple(tuple(columns[u][p] for u in range(n)) for p in range(lattice.n_paths))


@pytest.mark.parametrize("monotone", [False, True])
def test_solve_matches_the_term_list_loop(monotone):
    compared = 0
    for seed, sc in repr_family(30):
        problem = sc.build_problem()
        problem = problem.with_X(forward_evaluate(problem))
        if monotone:
            # X of the affine g from L is X of the cubic g from L**(1/3): the
            # solved S is L's minimal form, and most of its cube roots are floats
            problem = odd_power(sc).build_problem().with_X(problem.X)
        L = solve_representation(problem)
        plain = plain_solve(problem)
        for row, plain_row in zip(L.rows, plain, strict=True):
            assert all(same(a, b) for a, b in zip(row, plain_row, strict=True)), seed
        compared += 1
    assert compared >= 20, compared


def mass_at(problem, w):
    """The problem with mu's mass moved to instant index w on every path
    (1 plus the path's old mass there), and X the forward reward of L."""
    lattice = problem.lattice
    mass = tuple(
        tuple(m + 1 if i == w else Fraction(0) for i, m in enumerate(row))
        for row in problem.mu.mass
    )
    moved = dataclasses.replace(problem, mu=representation.RandomMeasure(mass))
    assert lattice.n_instants > w + 1
    return moved.with_X(forward_evaluate(moved))


def shifted(X, u, block, delta):
    """X with delta added on the paths of `block` at instant index u."""
    columns = [list(col) for col in X.columns]
    for p in block:
        columns[u][p] += delta
    return LatticeProcess(tuple(map(tuple, columns)))


@pytest.mark.parametrize("monotone", [False, True])
def test_solve_handles_massless_windows(monotone):
    # with mass only at instant index 2, the windows after u <= 1 that end
    # by 2 carry none, and every window after u >= 3 is massless, where a
    # representable X is 0 and the solved signal is 0
    for seed, sc in repr_family(30):
        if monotone:
            sc = odd_power(sc)
        problem = mass_at(sc.build_problem(), 2)
        L = solve_representation(problem)
        plain = plain_solve(problem)
        for row, plain_row in zip(L.rows, plain, strict=True):
            assert all(same(a, b) for a, b in zip(row, plain_row, strict=True)), seed
        assert all(v == 0 for col in L.columns[3:] for v in col), seed


def test_solve_reports_an_atom_whose_windows_are_all_massless():
    for seed, sc in repr_family(20):
        problem = mass_at(sc.build_problem(), 2)
        block = sorted(field_partitions(problem.lattice, problem.meyer, Kind.LAMBDA)[3])[-1]
        bad = problem.with_X(shifted(problem.X, 3, block, Fraction(1, 2)))
        with pytest.raises(
            representation.RepresentationError,
            match=r"^X not representable with this \(g, mu\): "
            r"mass exhausted before instant index 3 but X is nonzero$",
        ):
            solve_representation(bad)


def test_solve_reports_a_massless_window_that_loses_reward():
    # lowering X at instant index 1 on an atom makes the window that stops
    # the whole atom at 2 massless with N_T < 0: no representable X has one,
    # so the search stops there and the forward check fails, as the
    # per-window minimum does too
    for seed, sc in repr_family(20):
        problem = mass_at(sc.build_problem(), 2)
        lattice, X = problem.lattice, problem.X
        probs = lattice.probabilities
        for block in field_partitions(lattice, problem.meyer, Kind.LAMBDA)[1]:
            weight = sum(probs[p] for p in block)
            drop = sum(probs[p] * (X.columns[1][p] - X.columns[2][p]) for p in block)
            assert drop >= 0, seed
            bad = problem.with_X(shifted(X, 1, block, -drop / weight - 1))
            assert sum(probs[p] * (bad.X.columns[1][p] - X.columns[2][p]) for p in block) < 0
            with pytest.raises(
                representation.RepresentationError,
                match=r"^X not representable with this \(g, mu\): forward check failed$",
            ):
                solve_representation(bad)
            plain = LatticeProcess.from_rows(plain_solve(bad))
            assert forward_evaluate(bad.with_L(plain)).columns != bad.X.columns, seed


def chain_problems(count):
    """Forward rewards on one path over three epochs, with L in 0..4 and mu
    in 0..2: windows of different mass often tie at a Dinkelbach step."""
    lattice, meyer = build_lattice(["1"], [[[0]]] * 4, [[[0]]] * 4)
    n = lattice.n_instants
    g = representation.GFamily.affine([[0] * n], [[1] * n])
    rng = random.Random(1)
    for _ in range(count):
        mu = representation.RandomMeasure.from_rows([[rng.randint(0, 2) for _ in range(n)]])
        L = LatticeProcess.from_rows([[rng.randint(0, 4) for _ in range(n)]])
        problem = representation.RepresentationProblem(lattice, meyer, g, mu, L=L)
        yield problem.with_X(forward_evaluate(problem))


def test_the_solve_does_not_depend_on_the_walk_order(monkeypatch):
    # `_least_root` steps to the first maximizer its walk yields; every
    # maximizer leads to the same least root, so the walk may run in any order
    problems = list(chain_problems(100))
    for seed, sc in repr_family(40):
        rng = random.Random(seed)
        for variant in (sc, odd_power(sc)):
            problem = variant.build_problem()
            X = forward_evaluate(problem)
            u = rng.randrange(problem.lattice.n_instants)
            block = rng.choice(field_partitions(problem.lattice, problem.meyer, Kind.LAMBDA)[u])
            for reward in (X, shifted(X, u, block, Fraction(rng.randint(-4, 4), 3))):
                problems.append(problem.with_X(reward))
    folds = []  # per solve, the best gain of each Dinkelbach fold
    best = representation._best

    def recorded(*args):
        result = best(*args)
        folds[-1].append(result[0][0])
        return result

    def solved():
        out = []
        for problem in problems:
            folds.append([])
            try:
                out.append(solve_representation(problem))
            except representation.RepresentationError as exc:
                out.append(str(exc))
        return out

    monkeypatch.setattr(representation, "_best", recorded)
    before = solved()
    first_folds = folds[:]
    folds.clear()
    walk = enumeration._walk
    reordered = []

    def reversed_walk(steps, start, active, keep=None):
        listed = list(walk(steps, start, active, keep))
        reordered.append(listed[0] != listed[-1])
        return iter(listed[::-1])

    monkeypatch.setattr(enumeration, "_walk", reversed_walk)
    assert solved() == before
    assert sum(reordered) >= 100, sum(reordered)
    assert 20 <= sum(isinstance(got, str) for got in before) <= len(before) - 100
    # tied windows of different mass: the reversed walk took other steps in
    # successful solves, so a search that stops early gives other results
    rerouted = [got for got, a, b in zip(before, first_folds, folds, strict=True) if a != b]
    assert sum(not isinstance(got, str) for got in rerouted) >= 5, len(rerouted)


# (d) divided stops ----------------------------------------------------------


def plain_quadruple(lattice, T):
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
        T=RandomInstant.from_assignment(lattice, grid),
        w_minus=frozenset(),
        w=frozenset(w),
        w_plus=frozenset(w_plus),
    )


def test_divided_stops_are_lambda_stopping_times():
    for seed, sc in small_family():
        lattice, meyer = sc.lattice, sc.meyer
        tuples = sorted(iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA))
        times = [RandomInstant(idx, lattice.n_instants) for idx in tuples]
        assert all(is_lambda_stopping_time(lattice, meyer, T) for T in times), seed
        stops = enumerate_divided_stops(lattice, meyer)
        assert stops == [plain_quadruple(lattice, T) for T in times], seed
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
    init = RandomInstant.__init__
    walk = enumeration._walk

    def counting_init(self, indices, n_instants):
        built.append(indices)
        init(self, indices, n_instants)

    def counting_walk(steps, start, active, keep=None):
        if keep is not None:
            walks.append(keep)
        return walk(steps, start, active, keep)

    monkeypatch.setattr(RandomInstant, "__init__", counting_init)
    monkeypatch.setattr(enumeration, "_walk", counting_walk)
    assert checks.check_snell_oracle(lattice, meyer, const) is None
    assert checks.check_optimality_oracle(lattice, meyer, const) is None
    doc, status = cli.run_command(
        Scenario(lattice=lattice, meyer=meyer, processes={"C": const}), "snell"
    )
    assert status == 0 and doc["optimizer_count"] > 100
    assert built == [] and walks == []

    # the sandwich runs on the seed-58 lattice; Z has one optimal time and
    # `flat` eleven, and each builds the same few stopping times
    sc58 = generate_instance(
        RandomInstanceParams(seed=58, epochs=2, max_paths=5, regime=OPTIONAL_EXTREME)
    )
    n = sc58.lattice.n_instants
    flat = LatticeProcess.from_rows([[2] * (n - 1) + [0]] * sc58.lattice.n_paths)
    per_reward = []
    for Z in (sc58.processes["Z"], flat):
        built.clear()
        assert checks.check_sandwich(sc58.lattice, sc58.meyer, Z) is None
        per_reward.append(len(built))
    assert walks == [] and per_reward[0] == per_reward[1], per_reward
    assert snell_brute_force(sc58.lattice, sc58.meyer, flat).optimizer_count == 11

    built.clear()
    brute = snell_brute_force(lattice, meyer, const)
    assert built == [] and walks == []
    assert len(brute.optimizers) == brute.optimizer_count == doc["optimizer_count"]
    assert len(built) == len(brute.optimizers) and len(walks) == 1
    assert brute.optimizers is brute.optimizers


def test_relaxation_and_usc_checks_list_no_stopping_time(monkeypatch):
    listed = []
    walk = enumeration._walk

    def no_listing(steps, start, active, keep=None):
        if keep is None:
            listed.append(steps.n_inst)
        return walk(steps, start, active, keep)

    monkeypatch.setattr(enumeration, "_walk", no_listing)
    heavy = generate_instance(
        RandomInstanceParams(seed=62, epochs=4, max_paths=6, regime=OPTIONAL_EXTREME)
    )
    for sc in [heavy, *(sc for _, sc in small_family(12))]:
        lattice, meyer = sc.lattice, sc.meyer
        starts = [
            RandomInstant.constant(lattice, Instant(k, AT))
            for k in range(lattice.epoch_count + 1)
        ]
        for name in ("L", "Z"):
            assert checks.check_delta(lattice, meyer, sc.processes[name], starts) is None
            assert checks.check_usc_equivalence(lattice, meyer, sc.processes[name]) is None
        for problem in (sc.build_problem(), odd_power(sc).build_problem()):
            assert checks.check_representation_roundtrip(problem) is None
    assert listed == []
    # the wrapper sees a listing where there is one
    assert len(list(iter_stopping_index_tuples(heavy.lattice, heavy.meyer))) == 745
    assert listed == [heavy.lattice.n_instants]


# (e) first-hit stops and divided-stop readings ------------------------------
#
# Every stopping rule is now one debut scan (`lattice._first_hits`) and every
# divided stop one reading rule (`lattice._divided_readings`).  The oracles
# are the per-rule loops and the reading ladders those replaced.


def plain_entry(lattice, S, hit):
    """Per path, the first instant at or after S where hit(p, idx)."""
    n, lower = lattice.n_instants, S.indices
    out = []
    for p in range(lattice.n_paths):
        found = TERMINAL
        for idx in range(lower[p], n):
            if hit(p, idx):
                found = lattice.instant_at(idx)
                break
        out.append(found)
    return RandomInstant.from_assignment(lattice, out)


def plain_sigma(lattice, decomp, S):
    """First growth of A + B past A_S + B_{S-}, with the growth attribution."""
    n, lower = lattice.n_instants, S.indices
    a, b, bs = decomp.a, decomp.b, decomp.b_shifted
    times, k_minus, k_on, k_plus, w_on, w_plus = [], set(), set(), set(), set(), set()
    for p in range(lattice.n_paths):
        if lower[p] >= n:
            times.append(TERMINAL)
            k_plus.add(p)
            w_on.add(p)
            continue
        base = a.columns[lower[p]][p] + bs.columns[lower[p]][p]
        hit = TERMINAL
        for idx in range(lower[p], n):
            if a.columns[idx][p] + b.columns[idx][p] > base:
                hit = lattice.instant_at(idx)
                break
        times.append(hit)
        if hit is TERMINAL:
            a_t, b_t = a.columns[-1][p], b.columns[-1][p]
        else:
            a_t, b_t = a.columns[hit.index][p], b.columns[hit.index][p]
        if a_t > a.columns[lower[p]][p]:
            k_minus.add(p)
        elif b_t > bs.columns[lower[p]][p]:
            k_on.add(p)
            w_on.add(p)
        else:
            k_plus.add(p)
            (w_on if hit is TERMINAL else w_plus).add(p)
    T = RandomInstant.from_assignment(lattice, times)
    sets = tuple(frozenset(x) for x in (k_minus, k_on, k_plus, w_on, w_plus))
    return T, sets


def plain_passage(lattice, L, ell, variant):
    """First instant where the running maximum of L reaches / exceeds ell."""
    out = []
    for p in range(lattice.n_paths):
        running, hit = None, TERMINAL
        for idx in range(lattice.n_instants):
            v = L.columns[idx][p]
            running = v if running is None or v > running else running
            if (variant == 1 and running >= ell) or (variant == 2 and running > ell):
                hit = lattice.instant_at(idx)
                break
        out.append(hit)
    return RandomInstant.from_assignment(lattice, out)


def plain_largest(lattice, m, zbar):
    """Entry of {M != Zbar}, an interval entry read at its grid point."""
    out = []
    for p in range(lattice.n_paths):
        first = None
        for idx in range(lattice.n_instants):
            if m.columns[idx][p] != zbar.columns[idx][p]:
                first = idx
                break
        if first is None:
            out.append(TERMINAL)
        else:
            out.append(lattice.instant_at(first - first % 2))
    return RandomInstant.from_assignment(lattice, out)


def plain_reading(lattice, q):
    """Instant form of a quadruple, by the per-part ladder."""
    out = []
    for p, u in enumerate(q.T.assignment):
        if p in q.w_minus:
            out.append(Instant(lattice.epoch_count, INT) if u is TERMINAL else Instant(u.epoch - 1, INT))
        elif p in q.w_plus:
            out.append(Instant(u.epoch, INT))
        else:
            out.append(u)
    return RandomInstant.from_assignment(lattice, out)


def plain_cutoffs(lattice, tau):
    """(reading index, accrual cutoff index) per path, by the isinstance ladder."""
    n = lattice.n_instants
    if isinstance(tau, RandomInstant):
        return [(n, n) if u is TERMINAL else (u.index, u.index) for u in tau.assignment]
    out = []
    for p, u in enumerate(tau.T.assignment):
        if p in tau.w_minus:
            out.append((n - 1, n) if u is TERMINAL else (u.index - 1, u.index))
        elif p in tau.w_plus:
            out.append((u.index + 1, u.index + 1))
        else:
            out.append((n, n) if u is TERMINAL else (u.index, u.index))
    return out


def test_first_hit_stops_match_the_scans_they_replace():
    seen = {"w_minus": 0, "w_plus": 0, "terminal S": 0, "entry differs": 0}
    for seed, sc in small_family():
        lattice, meyer = sc.lattice, sc.meyer
        zero = RandomInstant.constant(lattice, Instant(0, AT))
        starts = [zero] + [
            RandomInstant(idx, lattice.n_instants)
            for idx in iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA)
        ]
        Z = sc.processes["Z"]
        zbar = snell_envelope(lattice, meyer, Z)
        decomp = mertens_decompose(lattice, meyer, zbar)
        for S in starts:
            touch = plain_entry(lattice, S, lambda p, i: zbar.columns[i][p] == Z.columns[i][p])
            ds = delta_stop(lattice, meyer, Z, S, zbar)
            assert ds.T == touch, (seed, S)
            for lam in (Fraction(1, 2), Fraction(9, 10)):
                entry = plain_entry(
                    lattice, S, lambda p, i: lam * zbar.columns[i][p] <= Z.columns[i][p]
                )
                assert lambda_entry_time(lattice, meyer, Z, zbar, lam, S) == entry, (seed, S)
                seen["entry differs"] += entry != touch
            T, sets = plain_sigma(lattice, decomp, S)
            ss = sigma_stop(lattice, meyer, Z, S, zbar, decomp)
            q = ss.quadruple
            assert ss.T == q.T == T, (seed, S)
            assert (ss.k_minus, ss.k_on, ss.k_plus, q.w, q.w_plus) == sets, (seed, S)
            assert q.w_minus == ss.k_minus
            for stop in (S, ds.quadruple, q):
                cuts = representation._accrual_cutoffs(lattice, stop)
                assert cuts == plain_cutoffs(lattice, stop), (seed, stop)
            for stop in (ds.quadruple, q):
                assert from_divided_quadruple(lattice, stop) == plain_reading(lattice, stop)
            seen["w_minus"] += bool(q.w_minus)
            seen["w_plus"] += bool(q.w_plus or ds.quadruple.w_plus)
            seen["terminal S"] += TERMINAL in S.assignment
        for q in enumerate_divided_stops(lattice, meyer)[::7]:
            assert representation._accrual_cutoffs(lattice, q) == plain_cutoffs(lattice, q)
            assert from_divided_quadruple(lattice, q) == plain_reading(lattice, q)
    assert all(v > 100 for v in seen.values()), seen


def test_level_passage_matches_the_running_maximum():
    compared = {1: 0, 2: 0}
    for seed, sc in small_family():
        lattice, meyer, L = sc.lattice, sc.meyer, sc.processes["L"]
        values = sorted({v for row in L.rows for v in row})
        between = [(x + y) / 2 for x, y in zip(values, values[1:])]
        for ell in [values[0] - 1, *values, *between, values[-1] + 1]:
            for variant in (1, 2):
                passage = level_passage(lattice, meyer, L, ell, variant)
                plain = plain_passage(lattice, L, ell, variant)
                assert passage.T == plain, (seed, ell, variant)
                assert passage.quadruple == to_divided_quadruple(lattice, meyer, plain)
                compared[variant] += 1
    assert min(compared.values()) > 500, compared


def usc_reward(rng, lattice):
    """A reward on an optional lattice that is right- and left-USC in
    expectation: built backwards, each interval value at most the predictable
    average of the next grid value, each grid value at least its interval's."""
    n, K = lattice.n_instants, lattice.epoch_count
    cols = [[Fraction(0)] * lattice.n_paths for _ in range(n)]
    for k in range(K, -1, -1):
        at, part = 2 * k, lattice.filtration[k]
        if k < K:
            cap = conditional_expectation(lattice, cols[at + 2], part)
            for atom in part:
                share = Fraction(rng.choice((0, 1, 1, 2)), 2)
                for p in atom:
                    cols[at + 1][p] = share * cap[p]
        for atom in part:
            extra = rng.choice((0, 0, 1, 2, 3))
            for p in atom:
                cols[at][p] = cols[at + 1][p] + extra
    return LatticeProcess.from_rows([[col[p] for col in cols] for p in range(lattice.n_paths)])


def test_largest_optimal_time_matches_the_entry_loop():
    parities = {0: 0, 1: 0, "terminal": 0}
    for seed in range(40):
        sc = generate_instance(
            RandomInstanceParams(
                seed=seed, epochs=1 + seed % 3, max_paths=2 + seed % 5, regime=OPTIONAL_EXTREME
            )
        )
        lattice, meyer = sc.lattice, sc.meyer
        rng = random.Random(seed)
        for _ in range(4):
            Z = usc_reward(rng, lattice)
            result = smallest_largest_optimal(lattice, meyer, Z)
            zbar = snell_envelope(lattice, meyer, Z)
            m = mertens_decompose(lattice, meyer, zbar).m
            assert result.largest == plain_largest(lattice, m, zbar), seed
            for p in range(lattice.n_paths):
                n = lattice.n_instants
                diff = [i for i in range(n) if m.columns[i][p] != zbar.columns[i][p]]
                parities[diff[0] % 2 if diff else "terminal"] += 1
    # left-USC in expectation leaves A no jump before TERMINAL, so {M != Zbar}
    # is first met at an interval instant, where B jumps, or never
    assert parities[0] == 0 and min(parities[1], parities["terminal"]) > 20, parities


def _suite_row(sc, name, guard):
    """The message of the suite row `name`, run alone at `guard`."""
    return dict(cli._suite_checks(sc, guard))[name]()


def test_sandwich_names_an_optimal_time_outside_a_narrowed_bracket(monkeypatch):
    # with the sigma reading moved to instant 0, the bracket keeps only the
    # optimal times at 0, so the row must name one of the others, at any guard
    monkeypatch.setattr(
        checks,
        "from_divided_quadruple",
        lambda lattice, q: RandomInstant((0,) * lattice.n_paths, lattice.n_instants),
    )
    verdicts = {True: 0, False: 0}
    for seed in range(40):
        sc = generate_instance(
            RandomInstanceParams(
                seed=seed, epochs=1 + seed % 3, max_paths=2 + seed % 5, regime=OPTIONAL_EXTREME
            )
        )
        lattice, meyer = sc.lattice, sc.meyer
        rng = random.Random(seed)
        for _ in range(4):
            Z = usc_reward(rng, lattice)
            smallest = smallest_largest_optimal(lattice, meyer, Z).smallest
            zero = RandomInstant((0,) * lattice.n_paths, lattice.n_instants)
            brute = snell_brute_force(lattice, meyer, Z)
            escapees = {
                f"optimal time {U.assignment} escapes the delta/sigma bracket"
                for U in brute.optimizers
                if not smallest <= U <= zero
            }
            message = checks.check_sandwich(lattice, meyer, Z)
            assert (message is None) == (not escapees), (seed, message)
            assert message is None or message in escapees, (seed, message)
            verdicts[message is None] += 1
            # the suite row reads the same at any guard, below the optimizers too
            alone = Scenario(lattice=lattice, meyer=meyer, processes={"Z": Z})
            for guard in (2, brute.optimizer_count - 1, DEFAULT_GUARD):
                assert _suite_row(alone, "stop/sandwich[Z]", guard) == message, (seed, guard)
    assert min(verdicts.values()) >= 20, verdicts


def test_disagreeing_certificate_folds_fail_past_the_guard(monkeypatch):
    # certifying every cell makes the folds disagree: the row names a
    # witness of the plain loop at any guard, and never skips
    sc = generate_instance(
        RandomInstanceParams(seed=62, epochs=4, max_paths=6, regime=OPTIONAL_EXTREME)
    )
    lattice, meyer, Z = sc.lattice, sc.meyer, sc.processes["Z"]
    monkeypatch.setattr(checks, "_cells", lambda lattice, allowed: _between(lattice, None))
    everything = {(p, i) for p in range(lattice.n_paths) for i in range(lattice.n_instants + 1)}
    disagreements = set(plain_optimality_oracle(lattice, meyer, Z, everything))
    assert disagreements and all(m.startswith("certificate says True ") for m in disagreements)
    ways = snell_brute_force(lattice, meyer, Z).optimizer_count
    for guard in (2, ways - 1, DEFAULT_GUARD):
        rows = {r["property"]: r for r in cli.run_suite(sc, guard=guard)[0]["checks"]}
        row = rows["optimality/certificates[Z]"]
        assert row["status"] == "FAIL" and row["detail"] in disagreements, (guard, row)
        assert not any("past the guard" in r["detail"] for r in rows.values()), guard


def test_the_ranked_fold_names_an_optimal_time_outside_its_table():
    # drawn cell tables and brackets: the fold names a time exactly when an
    # optimal time of the plain listing leaves the table, and it is one of them
    seen = {"named": 0, "inside": 0}
    for seed, sc in small_family():
        lattice, meyer = sc.lattice, sc.meyer
        n = lattice.n_instants
        rng = random.Random(seed)
        stops = sorted(iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA))
        for name in ("L", "Z"):
            process = sc.processes[name]
            worth = {
                idx: expected_value(lattice, RandomInstant(idx, n).value_of(process))
                for idx in stops
            }
            optimum = max(worth.values())
            optimal = [idx for idx in stops if worth[idx] == optimum]
            for _ in range(3):
                if rng.random() < 0.5:
                    table = _cells(lattice, lambda p, i: rng.random() < 0.8)
                else:
                    ends = [rng.choice(optimal), rng.choice(stops)]
                    lo, hi = (RandomInstant(tuple(map(f, *ends)), n) for f in (min, max))
                    table = _between(lattice, lo, hi)
                outside = {
                    idx for idx in optimal if any(not table[i] >> p & 1 for p, i in enumerate(idx))
                }
                value, named = enumeration._ranked(lattice, meyer, process, table)
                assert value == optimum, (seed, name)
                assert (named is None) == (not outside), (seed, name, named)
                assert named is None or named in outside, (seed, name, named)
                seen["inside" if named is None else "named"] += 1
    assert min(seen.values()) >= 20, seen


def test_a_just_before_stop_at_epoch_zero_has_no_reading():
    sc = generate_instance(RandomInstanceParams(seed=8, epochs=2, max_paths=4))
    lattice, problem = sc.lattice, sc.build_problem()
    everyone = frozenset(range(lattice.n_paths))
    q = DividedQuadruple(
        T=RandomInstant.constant(lattice, Instant(0, AT)),
        w_minus=everyone,
        w=frozenset(),
        w_plus=frozenset(),
    )
    with pytest.raises(LatticeError, match="epoch 0"):
        stopping_value(problem, Fraction(0), q)
    with pytest.raises(LatticeError, match="epoch 0"):
        from_divided_quadruple(lattice, q)


# (f) mertens_decompose checks its input through its jumps -------------------


def plain_is_supermartingale(lattice, meyer, process) -> bool:
    """Each instant slice dominates its conditional continuation, TERMINAL included."""
    for idx, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA)):
        cont = conditional_expectation(lattice, process.columns[idx + 1], part)
        if any(v < c for v, c in zip(process.columns[idx], cont)):
            return False
    return True


def input_fault(lattice, meyer, z):
    """Why the input pass of the earlier decomposition rejected z, or None."""
    if not is_measurable(lattice, meyer, z, Kind.LAMBDA):
        return "not measurable"
    if not plain_is_supermartingale(lattice, meyer, z):
        return "not a supermartingale"
    if any(v < 0 for row in z.rows for v in row):
        return "negative"
    if any(t != 0 for t in z.columns[-1]):
        return "nonzero terminal"
    return None


def atomwise(lattice, meyer, draw):
    """A Lambda-measurable process with one draw() per (instant, atom)."""
    rows = [[None] * lattice.n_instants for _ in range(lattice.n_paths)]
    for idx, part in enumerate(field_partitions(lattice, meyer, Kind.LAMBDA)):
        for atom in part:
            v = draw()
            for p in atom:
                rows[p][idx] = v
    return LatticeProcess.from_rows(rows)


def candidate_inputs(sc, rng):
    """Envelopes, and envelopes bent in each way the input pass rejects."""
    lattice, meyer = sc.lattice, sc.meyer
    fields = field_partitions(lattice, meyer, Kind.LAMBDA)
    for name in ("Z", "L"):
        zbar = snell_envelope(lattice, meyer, sc.processes[name])
        yield zbar
        idx = rng.randrange(lattice.n_instants)
        yield _bump_atom(zbar, idx, rng.choice(fields[idx]), rng.choice((-2, -1, 1, 2)))
        # a shift keeps the supermartingale inequality and can go negative
        yield LatticeProcess.from_rows(
            [[v - 1 for v in row] for row in zbar.rows], terminal=[-1] * lattice.n_paths
        )
        yield LatticeProcess.from_rows(zbar.rows, terminal=[1] * lattice.n_paths)
        shared = [(i, a) for i, part in enumerate(fields) for a in part if len(a) > 1]
        if shared:
            i, atom = rng.choice(shared)
            yield _bump_atom(zbar, i, [min(atom)], 1)
    yield atomwise(lattice, meyer, lambda: Fraction(rng.randint(0, 3)))
    yield snell_envelope(lattice, meyer, atomwise(lattice, meyer, lambda: rng.randint(0, 5)))


def mertens_rejection(lattice, meyer, z) -> str:
    """The message for a measurable z that the input pass rejected: a reward
    fault, else the first negative jump, epoch by epoch, B-jump at k before
    A-jump at k."""
    if any(v < 0 for row in z.rows for v in row) or any(t != 0 for t in z.columns[-1]):
        return "decomposition expects a nonnegative input with terminal 0"
    col = z.columns
    for k in range(lattice.epoch_count + 1):
        jumps = [("B", col[2 * k], col[2 * k + 1], meyer.meyer_fields[k])]
        if k:
            jumps.append(("A", col[2 * k - 1], col[2 * k], lattice.filtration[k - 1]))
        for name, here, after, part in jumps:
            cont = conditional_expectation(lattice, after, part)
            if any(v < c for v, c in zip(here, cont)):
                return f"negative {name}-jump: input violates the supermartingale property"
    raise AssertionError("the input pass rejected a supermartingale")


def test_mertens_rejects_exactly_what_the_input_pass_rejected():
    faults = dict.fromkeys(
        (None, "not measurable", "not a supermartingale", "negative", "nonzero terminal"), 0
    )
    messages = dict.fromkeys("BA", 0)
    for seed, sc in small_family():
        rng = random.Random(seed)
        for z in candidate_inputs(sc, rng):
            fault = input_fault(sc.lattice, sc.meyer, z)
            faults[fault] += 1
            if fault is None:
                mertens_decompose(sc.lattice, sc.meyer, z)
                continue
            with pytest.raises(LatticeError) as caught:
                mertens_decompose(sc.lattice, sc.meyer, z)
            if fault == "not measurable":
                assert str(caught.value) == "process is not Lambda-measurable"
                continue
            expected = mertens_rejection(sc.lattice, sc.meyer, z)
            assert str(caught.value) == expected, seed
            if expected.startswith("negative "):
                messages[expected[len("negative ")]] += 1
    assert min(faults.values()) >= 20, faults
    assert min(messages.values()) >= 10, messages


def test_mertens_reports_a_lost_martingale(monkeypatch):
    real = checks.mertens_decompose
    reported = 0
    for seed, sc in small_family(12):
        lattice, meyer, Z = sc.lattice, sc.meyer, sc.processes["Z"]
        assert checks.check_mertens(lattice, meyer, Z) is None
        rng = random.Random(seed)
        idx = rng.randrange(lattice.n_instants)
        atom = rng.choice(field_partitions(lattice, meyer, Kind.LAMBDA)[idx])

        def bent(*args):
            d = real(*args)
            return dataclasses.replace(d, m=_bump_atom(d.m, idx, atom, rng.choice((-1, 1))))

        monkeypatch.setattr(checks, "mertens_decompose", bent)
        assert checks.check_mertens(lattice, meyer, Z) == "M is not a Lambda-martingale"
        monkeypatch.setattr(checks, "mertens_decompose", real)
        reported += 1
    assert reported == 12


# (g) relaxation maximum and sequential USC forms ----------------------------
#
# `check_delta` reads the divided-stop maximum from S off one memoized fold
# over Lambda-stopping times T >= S.  `check_usc_sequence_equivalence`
# decides the right form per (instant, Lambda atom) and the left form by one
# maximum over predictable stopping times.  The oracles are the loops over
# every stopping time that those replace.


def plain_divided_maximum(lattice, meyer, process, S):
    """Largest E[Z at q] over the canonical divided stops q from S."""
    best = None
    for q in enumerate_divided_stops(lattice, meyer, from_S=S):
        v = expected_value(lattice, divided_value(lattice, process, q))
        if best is None or v > best:
            best = v
    return best


def plain_divided_maxima(lattice, meyer, process, starts):
    """`plain_divided_maximum` at every start, valuing each divided stop
    once: the stops from S are those read at or after S on every path, and
    the first of them in decreasing order of value is the largest."""
    valued = sorted(
        (
            (expected_value(lattice, divided_value(lattice, process, q)), read.indices)
            for q in enumerate_divided_stops(lattice, meyer)
            for read in [from_divided_quadruple(lattice, q)]
        ),
        key=lambda pair: pair[0],
        reverse=True,
    )
    return [
        next(v for v, read in valued if all(s <= r for s, r in zip(S.indices, read)))
        for S in starts
    ]


def plain_right_violations(lattice, meyer, process):
    """(T, atom) for every Lambda-stopping time T and atom of the Lambda
    field at T where E[Z_T; atom] < E[(right envelope)_T; atom]."""
    probs, n = lattice.probabilities, lattice.n_instants
    right_env = envelope(lattice, process, Side.RIGHT)
    for idx in iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA):
        T = RandomInstant(idx, n)
        z, z_after = T.value_of(process), T.value_of(right_env)
        for block in field_at_time(lattice, meyer, T, Kind.LAMBDA):
            on_time = sum((probs[p] * z[p] for p in block), Fraction(0))
            after = sum((probs[p] * z_after[p] for p in block), Fraction(0))
            if on_time < after:
                yield T, sorted(block)


def plain_left_violations(lattice, meyer, process):
    """Every predictable stopping time T with E[Z_T] < E[(left envelope)_T]."""
    probs, n = lattice.probabilities, lattice.n_instants
    left_env = envelope(lattice, process, Side.LEFT)
    for idx in iter_stopping_index_tuples(lattice, meyer, Kind.PREDICTABLE):
        T = RandomInstant(idx, n)
        on_time = sum((c * v for c, v in zip(probs, T.value_of(process))), Fraction(0))
        announced = sum((c * v for c, v in zip(probs, T.value_of(left_env))), Fraction(0))
        if on_time < announced:
            yield T


def usc_candidates(sc, rng):
    """Z, and random rewards; half of them vanish on the last interval, so
    that the left form can hold."""
    lattice, meyer = sc.lattice, sc.meyer
    yield sc.processes["Z"]
    for k in range(4):
        Z = atomwise(lattice, meyer, lambda: Fraction(rng.randint(0, 3)))
        if k % 2:
            rows = [list(row) for row in Z.rows]
            for row in rows:
                row[-1] = Fraction(0)
            Z = LatticeProcess.from_rows(rows)
        yield Z


def test_divided_stop_maximum_matches_the_stop_loop():
    compared = 0
    for seed, sc in small_family():
        lattice, meyer, Z = sc.lattice, sc.meyer, sc.processes["Z"]
        zero = RandomInstant.constant(lattice, Instant(0, AT))
        starts = [zero] + [
            RandomInstant(idx, lattice.n_instants)
            for idx in iter_stopping_index_tuples(lattice, meyer, Kind.LAMBDA)
        ]
        plain = plain_divided_maxima(lattice, meyer, Z, starts)
        assert plain[0] == plain_divided_maximum(lattice, meyer, Z, zero), seed
        for S, expected in zip(starts, plain, strict=True):
            best = _maximum(lattice, meyer, Z, Kind.LAMBDA, _between(lattice, S)).value
            assert best == expected, (seed, S)
            compared += 1
    assert compared > 6000, compared


def test_delta_check_reports_a_maximum_that_ignores_the_start(monkeypatch):
    def from_zero(lattice, meyer, process, kind, allowed):
        return _maximum(lattice, meyer, process, kind, None)

    monkeypatch.setattr(checks, "_maximum", from_zero)
    reported = 0
    for seed, sc in small_family(30):
        lattice = sc.lattice
        starts = [
            RandomInstant.constant(lattice, Instant(k, AT))
            for k in range(lattice.epoch_count + 1)
        ]
        message = checks.check_delta(lattice, sc.meyer, sc.processes["Z"], starts)
        if message is not None:
            assert message.startswith("divided-stop maximum "), message
            reported += 1
    assert reported >= 10, reported


def test_sequential_usc_forms_match_the_stop_loops():
    verdicts = dict.fromkeys(
        [("right", True), ("right", False), ("left", True), ("left", False)], 0
    )
    for seed, sc in small_family():
        rng = random.Random(seed)
        for Z in usc_candidates(sc, rng):
            report = check_usc_sequence_equivalence(sc.lattice, sc.meyer, Z)
            right = next(plain_right_violations(sc.lattice, sc.meyer, Z), None) is None
            left = next(plain_left_violations(sc.lattice, sc.meyer, Z), None) is None
            assert (report.right_sequential, report.left_sequential) == (right, left), seed
            assert report.ok, (seed, report.counterexample)
            verdicts["right", right] += 1
            verdicts["left", left] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_usc_guard_bounds_the_predictable_fold():
    # the seed-62 heavy lattice has 745 Lambda-stopping times and 213
    # predictable ones; the row only folds over them, so no guard bounds it
    # and the row reads the same below that count as above it
    heavy = generate_instance(
        RandomInstanceParams(seed=62, epochs=4, max_paths=6, regime=OPTIONAL_EXTREME)
    )
    lattice, meyer = heavy.lattice, heavy.meyer
    assert enumeration.count_stopping_times(lattice, meyer, Kind.LAMBDA) == 745
    assert enumeration.count_stopping_times(lattice, meyer, Kind.PREDICTABLE) == 213
    verdicts = []
    for guard in (200, 500):
        rows = {r["property"]: r for r in cli.run_suite(heavy, guard=guard)[0]["checks"]}
        verdicts.append([rows[f"usc/equivalence[{name}]"] for name in ("L", "Z")])
    assert verdicts[0] == verdicts[1]
    assert all(row["status"] == "PASS" for row in verdicts[0]), verdicts


@pytest.mark.parametrize("side", ["right", "left"])
def test_usc_equivalence_names_a_counterexample_for_each_form(side, monkeypatch):
    name = f"is_{side}_usc_in_expectation"
    real = getattr(projection, name)
    monkeypatch.setattr(
        projection, name, lambda *args: UscVerdict(ok=not real(*args).ok, witness=None)
    )
    seen = {True: 0, False: 0}
    for seed, sc in small_family(30):
        lattice, meyer = sc.lattice, sc.meyer
        for Z in usc_candidates(sc, random.Random(seed)):
            message = checks.check_usc_equivalence(lattice, meyer, Z)
            if side == "right":
                violations = list(plain_right_violations(lattice, meyer, Z))
            else:
                violations = list(plain_left_violations(lattice, meyer, Z))
            holds = not violations
            prefix = f"{side}-USC predicate {not holds} but sequential form {holds} (at "
            assert message.startswith(prefix), (seed, message)
            witness = message[len(prefix) : -1]
            if holds:
                assert witness == "None", (seed, message)
            else:
                # the named witness is a genuine violation of the form
                assert witness in {str(v) for v in violations}, (seed, message)
            seen[holds] += 1
    assert min(seen.values()) >= 10, seen


# (h) per-part decisions -----------------------------------------------------
#
# `enumeration._fold` decides each (instant, part) node on its own.  The
# oracles are the fold it replaced, one memo entry per (instant, active
# paths) state over every subset of the state's stoppable parts, and the
# plain listing of that fold's completions.


def bits(mask):
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def mask_fold(lattice, meyer, kind, allowed, gains=None):
    """The per-state fold: (best, ways, total) of a state (i, active) and
    its memo, and a listing of the state's live completions with their gains."""
    n = lattice.n_instants
    fields = field_partitions(lattice, meyer, kind)
    atoms = [[sum(1 << p for p in atom) for atom in part] for part in fields]
    memo = {}

    def choices(i, active):
        # (stopped mask, gain) of every subset of the stoppable parts
        parts = [part for atom in atoms[i] if (part := atom & active) and not part & ~allowed[i]]
        for c in range(1 << len(parts)):
            stopped = sum(part for j, part in enumerate(parts) if c >> j & 1)
            yield stopped, sum(gains[i][p] for p in bits(stopped)) if gains else 0

    def fold(i, active):
        if i == n or not active:
            if active & ~allowed[n]:
                return None, 0, 0
            return sum(gains[n][p] for p in bits(active)) if gains else 0, 1, 1
        if (i, active) not in memo:
            best, ways, total = None, 0, 0
            for stopped, gain in choices(i, active):
                sub_best, sub_ways, sub_total = fold(i + 1, active & ~stopped)
                if not sub_total:
                    continue
                total += sub_total
                if best is None or gain + sub_best > best:
                    best, ways = gain + sub_best, sub_ways
                elif gain + sub_best == best:
                    ways += sub_ways
            memo[i, active] = best, ways, total
        return memo[i, active]

    def listing(i, active, assign):
        if i == n or not active:
            if not active & ~allowed[n]:
                yield tuple(assign), sum(gains[n][p] for p in bits(active)) if gains else 0
            return
        for stopped, gain in choices(i, active):
            for p in bits(stopped):
                assign[p] = i
            for idx, rest in listing(i + 1, active & ~stopped, assign):
                yield idx, gain + rest
            for p in bits(stopped):
                assign[p] = n

    return fold, memo, lambda active: listing(0, active, [n] * lattice.n_paths)


@pytest.mark.parametrize("kind", list(Kind))
def test_part_fold_matches_the_mask_fold(kind):
    seen = {"dead": 0, "scoped": 0, "listed": 0, "states": 0}
    for seed, sc in small_family():
        lattice, meyer = sc.lattice, sc.meyer
        n, paths = lattice.n_instants, lattice.n_paths
        full = (1 << paths) - 1
        rng = random.Random(seed)
        lower = RandomInstant(tuple(rng.randint(0, n) for _ in range(paths)), n)
        tables = [_between(lattice, None), _between(lattice, lower)]
        # sparser cells leave more paths no live completion, so more states die
        tables += [_cells(lattice, lambda p, i: rng.random() < odds) for odds in (0.9, 0.7, 0.5)]
        for allowed in tables:
            drawn = [[rng.randint(-4, 4) for _ in range(paths)] for _ in range(n + 1)]
            for gains in (None, drawn):
                fold, memo, listing = mask_fold(lattice, meyer, kind, allowed, gains)
                steps = enumeration._Decisions(lattice, meyer, kind, allowed)
                value = enumeration._fold(steps, gains)
                for active in (full, rng.randint(0, full)):
                    got = value(0, active)
                    assert got == fold(0, active), (seed, active)
                    seen["dead" if got[2] == 0 else "scoped" if active != full else "listed"] += 1
                    if gains is None or got[2] > 3000:
                        continue
                    # the attaining walk yields exactly the listed maximizers
                    listed = list(listing(active))
                    (best, ways, total), attaining = enumeration._best(steps, gains, 0, active)
                    argmax = sorted(idx for idx, gain in listed if gain == best)
                    assert (len(listed), len(argmax)) == (total, ways), seed
                    assert sorted(attaining()) == argmax, seed
                    assert sorted(enumeration._walk(steps, 0, active)) == sorted(i for i, _ in listed)
                for (i, active), want in memo.items():
                    assert value(i, active) == want, (seed, i, active)
                    seen["states"] += 1
    assert min(seen.values()) >= 20, seen


def full_binary_tree(depth, rng):
    """2**depth paths whose F_k splits them by their first k branch bits;
    G_k is F_{k-1} or F_k at random, and the reward is Lambda-measurable."""
    weights = [rng.randint(1, 9) for _ in range(1 << depth)]
    paths = tuple(PathRecord(f"p{i}", Fraction(w, sum(weights))) for i, w in enumerate(weights))
    filtration = tuple(
        make_partition(range(j << (depth - k), (j + 1) << (depth - k)) for j in range(1 << k))
        for k in range(depth + 1)
    )
    meyer = MeyerStructure(
        (filtration[0], *(filtration[k - rng.randint(0, 1)] for k in range(1, depth + 1)))
    )
    lattice = FilteredLattice(epoch_count=depth, paths=paths, filtration=filtration)
    columns = []
    for part in field_partitions(lattice, meyer, Kind.LAMBDA):
        column = [None] * lattice.n_paths
        for atom in part:
            value = Fraction(rng.randint(0, 20), rng.choice((1, 2, 4)))
            for p in atom:
                column[p] = value
        columns.append(tuple(column))
    reward = LatticeProcess((*columns, (Fraction(0),) * lattice.n_paths))
    return Scenario(lattice=lattice, meyer=meyer, processes={"Z": reward})


def test_wide_trees_fold_past_the_guard(tmp_path, capsys):
    # a 256-path tree has about 10**128 Lambda-stopping times: the fold
    # reads the maximum and both counts, and only a list of optimizers
    # longer than the guard stops a command
    sc = full_binary_tree(8, random.Random(8))
    lattice, meyer, Z = sc.lattice, sc.meyer, sc.processes["Z"]
    opt = _maximum(lattice, meyer, Z, Kind.LAMBDA, None)
    assert opt.total > 10**100
    assert opt.value == expected_value(lattice, snell_envelope(lattice, meyer, Z).columns[0])
    path = tmp_path / "tree-8.scn"
    path.write_text(render_scenario(sc), encoding="utf-8")
    for command in ("snell", "oracle"):
        assert cli.main([command, "--scenario", str(path)]) == 0, command
    capsys.readouterr()
    # every time is optimal for the zero reward
    zero = dataclasses.replace(sc, processes={"Z": LatticeProcess.constant(lattice, 0)})
    path.write_text(render_scenario(zero), encoding="utf-8")
    assert cli.main(["oracle", "--scenario", str(path)]) == 2
    message = f"error: {opt.total} stopping times exceed the guard of 1000000\n"
    assert capsys.readouterr().err == message


def test_the_suite_folds_past_the_guard_on_a_wide_tree():
    # the rows that read only a value or a count run at any size
    sc = full_binary_tree(8, random.Random(8))
    rows = {r["property"]: r for r in cli.run_suite(sc)[0]["checks"]}
    for name in ("usc/equivalence", "snell/oracle", "stop/delta", "optimality/certificates"):
        assert rows[f"{name}[Z]"]["status"] == "PASS", rows[f"{name}[Z]"]


def test_the_guard_bounds_exactly_what_a_walk_lists():
    # a listing stops at a guard one below its length and runs in full at
    # its length; the optimizers are bounded by their count alone
    seen = dict.fromkeys(Kind, 0)
    for seed, sc in small_family():
        rng = random.Random(seed)
        lattice, meyer, n = sc.lattice, sc.meyer, sc.lattice.n_instants
        for kind in Kind:
            lower = RandomInstant(tuple(rng.randint(0, n) for _ in range(lattice.n_paths)), n)
            total = enumeration.count_stopping_times(lattice, meyer, kind, lower)
            with pytest.raises(enumeration.EnumerationGuardError):
                next(iter_stopping_index_tuples(lattice, meyer, kind, lower, guard=total - 1))
            listed = iter_stopping_index_tuples(lattice, meyer, kind, lower, guard=total)
            assert sum(1 for _ in listed) == total, (seed, kind)
            seen[kind] += total > 1
        Z = sc.processes["Z"]
        ways = snell_brute_force(lattice, meyer, Z).optimizer_count
        for guard in (ways - 1, ways):
            brute = snell_brute_force(lattice, meyer, Z, guard)
            assert (brute.optimizer_count, brute.stopping_time_count) == (
                ways,
                enumeration.count_stopping_times(lattice, meyer, Kind.LAMBDA),
            )
            if ways > guard:
                with pytest.raises(enumeration.EnumerationGuardError):
                    brute.optimizers
            else:
                assert len(brute.optimizers) == ways, seed
    assert min(seen.values()) >= 20, seen
