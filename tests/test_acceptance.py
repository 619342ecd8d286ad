"""Acceptance battery: one test (and one printed PASS/FAIL line) per criterion.

Everything is exact rational arithmetic and no tolerance appears anywhere.
Odd-power g runs on S = L**power; the only floats are the solved signal
cells of criterion 8 whose S has no rational root, and those are checked
through S.

Instance families (all pure functions of their seeds):
  main_family   - 500 instances, epochs 1..4, up to 12 paths, all regimes;
                  4-epoch instances cap at 8 paths so the 10^6 enumeration
                  guard always holds.  The five instances of large_family
                  are added on top.
  large_family  - two 4-epoch optional-extreme instances (1603 and 173
                  stopping times) and three 9-path instances near the guard
                  (318 663, 374 171 and 743 507 stopping times).
  small_family  - 60 instances, epochs 1..3, up to 6 paths: the fully
                  enumerable family for divided-stop and Fatou oracles.
  cert_family   - 100 instances, epochs 1..3, up to 6 paths (criterion 4).
  repr_family   - 200 (g, mu, L) bundles, epochs 1..2, up to 5 paths; the
                  first 40 also run with g = a + b * ell**3 (odd_power).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from pathlib import Path

from meyerstop import checks
from meyerstop.cli import main, render_machine, run_command, run_suite
from meyerstop.enumeration import enumerate_stopping_times
from meyerstop.lattice import (
    AT,
    Instant,
    Kind,
    LatticeProcess,
    RandomInstant,
)
from meyerstop.projection import (
    is_left_usc_in_expectation,
    is_right_usc_in_expectation,
)
from meyerstop.representation import (
    GFamily,
    RepresentationProblem,
    forward_evaluate,
    solve_representation,
)
from meyerstop.scenario import (
    OPTIONAL_EXTREME,
    RANDOM_BETWEEN,
    REGIMES,
    RandomInstanceParams,
    generate_instance,
    parse_scenario,
)
from meyerstop.snell import mertens_decompose, snell_brute_force, snell_envelope

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

ZERO = Instant(0, AT)


def main_family():
    for seed in range(500):
        epochs = 1 + seed % 4
        cap = 11 if epochs < 4 else 7
        yield generate_instance(
            RandomInstanceParams(
                seed=seed,
                epochs=epochs,
                max_paths=2 + (seed * 7) % cap,
                regime=REGIMES[seed % 3],
            )
        )
    yield from large_family()


def large_family():
    # two 4-epoch optional-extreme instances (1603 and 173 stopping times)
    for seed in (77, 78):
        yield generate_instance(
            RandomInstanceParams(
                seed=seed, epochs=4, max_paths=8, regime=OPTIONAL_EXTREME
            )
        )
    yield from near_guard_family()


def near_guard_family():
    # three instances near the 10^6 enumeration guard
    # (318 663, 374 171 and 743 507 stopping times)
    for seed in (7, 4, 3):
        yield generate_instance(
            RandomInstanceParams(
                seed=seed, epochs=4, max_paths=9, regime=RANDOM_BETWEEN
            )
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


def repr_family(count=200):
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
    return sc._replace(g_spec={**sc.g_spec, "kind": "odd_power", "power": 3})


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_snell_oracle_equivalence():
    t0 = time.monotonic()
    n = 0
    for sc in main_family():
        Z = sc.processes["Z"]
        zbar = snell_envelope(sc.lattice, sc.meyer, Z)
        msg = checks.check_snell_oracle(sc.lattice, sc.meyer, Z, zbar)
        assert msg is None, msg
        n += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        n >= 500 and elapsed < 60,
        f"envelope = brute force on {n} instances in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_relaxation_exactness():
    checked = 0
    for seed, sc in small_family():
        lattice, meyer = sc.lattice, sc.meyer
        Z = sc.processes["Z"]
        times = list(enumerate_stopping_times(lattice, meyer, Kind.LAMBDA))
        rng = random.Random(10_000 + seed)
        starts = [RandomInstant.constant(lattice, ZERO)]
        starts += rng.sample(times, min(3, len(times)))
        zbar = snell_envelope(lattice, meyer, Z)
        decomp = mertens_decompose(lattice, meyer, zbar)
        msg = checks.check_delta(lattice, meyer, Z, zbar, decomp, starts)
        assert msg is None, (seed, msg)
        checked += len(starts)
    large = 0
    for sc in large_family():
        lattice = sc.lattice
        starts = [
            RandomInstant.constant(lattice, Instant(k, AT))
            for k in range(lattice.epoch_count + 1)
        ]
        Z = sc.processes["Z"]
        zbar = snell_envelope(lattice, sc.meyer, Z)
        decomp = mertens_decompose(lattice, sc.meyer, zbar)
        msg = checks.check_delta(lattice, sc.meyer, Z, zbar, decomp, starts)
        assert msg is None, msg
        large += len(starts)
    _report(
        2,
        checked > 0 and large == 25,
        f"E[env_S] = E[Z at delta_S] = divided max at {checked} starts, and at "
        f"{large} grid starts on the 4-epoch instances",
    )


def test_criterion_3_decomposition_identities():
    count = 0
    for seed, sc in small_family():
        Z = sc.processes["Z"]
        zbar = snell_envelope(sc.lattice, sc.meyer, Z)
        decomp = mertens_decompose(sc.lattice, sc.meyer, zbar)
        msg = checks.check_mertens(sc.lattice, sc.meyer, Z, zbar, decomp)
        assert msg is None, (seed, msg)
        msg = checks.check_sigma(
            sc.lattice,
            sc.meyer,
            Z,
            zbar,
            decomp,
            [RandomInstant.constant(sc.lattice, ZERO)],
        )
        assert msg is None, (seed, msg)
        count += 1
    _report(3, count == 60, f"jump formulas, martingale part, and sigma_0 on {count} instances")


def test_criterion_4_optimality_certificates():
    instances = 0
    for seed in range(100):
        sc = generate_instance(
            RandomInstanceParams(
                seed=seed,
                epochs=1 + seed % 3,
                max_paths=2 + seed % 5,
                regime=REGIMES[seed % 3],
            )
        )
        Z = sc.processes["Z"]
        zbar = snell_envelope(sc.lattice, sc.meyer, Z)
        msg = checks.check_optimality_oracle(sc.lattice, sc.meyer, Z, zbar)
        assert msg is None, (seed, msg)
        instances += 1
    _report(4, instances >= 100, f"certificate iff brute-force membership on {instances} instances")


def test_criterion_5_sandwich():
    qualified = 0
    for seed in range(400):
        sc = generate_instance(
            RandomInstanceParams(
                seed=seed,
                epochs=1 + seed % 3,
                max_paths=2 + seed % 5,
                regime=OPTIONAL_EXTREME,
            )
        )
        Z = sc.processes["Z"]
        if not is_right_usc_in_expectation(sc.lattice, sc.meyer, Z).ok:
            continue
        if not is_left_usc_in_expectation(sc.lattice, sc.meyer, Z).ok:
            continue
        zbar = snell_envelope(sc.lattice, sc.meyer, Z)
        decomp = mertens_decompose(sc.lattice, sc.meyer, zbar)
        msg = checks.check_sandwich(sc.lattice, sc.meyer, Z, zbar, decomp)
        assert msg is None, (seed, msg)
        qualified += 1
    _report(
        5,
        qualified >= 20,
        f"delta_0 <= every optimal <= sigma_0 and entry-time identities on "
        f"{qualified} qualifying optional-regime instances",
    )


def test_criterion_6_projection_laws():
    towers = 0
    for position, sc in enumerate(main_family()):
        # seeded by position: a hash of the string path ids varies with PYTHONHASHSEED
        rng = random.Random(10_000 + position)
        raw = LatticeProcess.from_rows(
            [
                [Fraction(rng.randint(0, 6)) for _ in range(sc.lattice.n_instants)]
                for _ in range(sc.lattice.n_paths)
            ]
        )
        for proc in (sc.processes["Z"], raw):
            msg = checks.check_projection_tower(sc.lattice, sc.meyer, proc)
            assert msg is None, msg
            msg = checks.check_projection_duality(sc.lattice, sc.meyer, proc)
            assert msg is None, msg
        towers += 1
    fatou = 0
    for seed, sc in small_family():
        rng = random.Random(20_000 + seed)
        raw = LatticeProcess.from_rows(
            [
                [Fraction(rng.randint(0, 6)) for _ in range(sc.lattice.n_instants)]
                for _ in range(sc.lattice.n_paths)
            ]
        )
        for proc in (sc.processes["Z"], raw):
            msg = checks.check_fatou(sc.lattice, sc.meyer, proc)
            assert msg is None, (seed, msg)
        fatou += 1
    _report(
        6,
        towers >= 500 and fatou == 60,
        f"tower + duality on {towers} instances; Fatou chains at every "
        f"(path, instant) cell on {fatou} instances",
    )


def test_criterion_7_semicontinuity_equivalences():
    count = 0
    for seed, sc in small_family():
        msg = checks.check_usc_equivalence(sc.lattice, sc.meyer, sc.processes["Z"])
        assert msg is None, (seed, msg)
        count += 1
    for sc in large_family():
        msg = checks.check_usc_equivalence(sc.lattice, sc.meyer, sc.processes["Z"])
        assert msg is None, msg
        count += 1
    _report(
        7,
        count == 65,
        f"predicate and sequential USC forms agree on {count} instances, "
        f"five of them with 4 epochs",
    )


def test_criterion_8_representation_round_trip():
    affine_count = 0
    for seed, sc in repr_family():
        problem = sc.build_problem()
        X = forward_evaluate(problem)
        solved = solve_representation(problem.with_X(X))
        again = forward_evaluate(problem.with_L(solved))
        assert again.columns == X.columns, seed
        affine_count += 1

    # odd-power g runs the affine code on S = L**3: the forward reward is the
    # affine one of S, the solve's own exact check reads S, and the signal
    # it returns is S's cube root, exact wherever S is a rational cube
    odd = exact = 0
    for seed, sc in repr_family(40):
        cubic = odd_power(sc).build_problem()
        g = cubic.g
        S = LatticeProcess(tuple(tuple(v**3 for v in col) for col in cubic.L.columns))
        affine = RepresentationProblem(
            sc.lattice, sc.meyer, GFamily.affine(g.a, g.b), cubic.mu, L=S
        )
        X = forward_evaluate(cubic)
        assert X.columns == forward_evaluate(affine).columns, seed
        solved_s = solve_representation(affine.with_X(X))
        solved = solve_representation(cubic.with_X(X))
        for s_col, l_col in zip(solved_s.columns, solved.columns, strict=True):
            for s, ell in zip(s_col, l_col, strict=True):
                if type(ell) is Fraction:
                    assert ell**3 == s, seed
                    exact += 1
                else:
                    assert type(ell) is float and ell == ell and s != 0, seed
        odd += 1

    # the round trip on three lattices near the enumeration guard
    guard = 0
    for sc in near_guard_family():
        assert checks.check_representation_roundtrip(sc.build_problem()) is None
        guard += 1
    _report(
        8,
        affine_count >= 200 and odd >= 40 and guard == 3,
        f"affine round trip exact on {affine_count} bundles; odd-power (cube) "
        f"round trip exact on S on {odd} bundles, {exact} signal cells rational; "
        f"round-trip check passes on {guard} near-guard lattices",
    )


def test_criterion_9_universal_signal():
    count = 0
    for seed, sc in repr_family():
        problem = sc.build_problem()
        assert len(sc.ell_grid) == 8
        msg = checks.check_universal_signal(problem, sc.ell_grid)
        assert msg is None, (seed, msg)
        count += 1
    odd = 0
    for seed, sc in repr_family(40):
        problem = odd_power(sc).build_problem()
        for msg in (
            checks.check_representation_roundtrip(problem),
            checks.check_universal_signal(problem, sc.ell_grid),
        ):
            assert msg is None, (seed, msg)
        odd += 1
    # the check folds over the Lambda-stopping times, so it runs on the
    # lattices near the enumeration guard too, within criterion 1's bound
    t0 = time.monotonic()
    near = 0
    for sc in near_guard_family():
        for problem in (sc.build_problem(), odd_power(sc).build_problem()):
            assert checks.check_universal_signal(problem, sc.ell_grid) is None
            near += 1
    elapsed = time.monotonic() - t0
    _report(
        9,
        count >= 200 and odd >= 40 and near == 6 and elapsed < 60,
        f"level-passage stops attain the fold optimum at 8 levels on "
        f"{count} instances and on {odd} odd-power variants, and on the 3 "
        f"near-guard lattices with both g ({elapsed:.1f}s < 60s); right-USC holds on all",
    )


def test_criterion_10_worked_fixtures():
    branch = parse_scenario((FIXTURES / "branch.scn").read_text(encoding="utf-8"))
    brute = snell_brute_force(branch.lattice, branch.meyer, branch.processes["Z"])
    assert brute.value == Fraction(2)
    doc, status = run_command(branch, "snell")
    assert status == 0
    assert render_machine(doc) == (GOLDEN / "branch_snell.json").read_text("utf-8")

    det = parse_scenario((FIXTURES / "deterministic.scn").read_text(encoding="utf-8"))
    brute = snell_brute_force(det.lattice, det.meyer, det.processes["Z"])
    assert brute.value == Fraction(3)
    assert brute.optimizers[0].assignment == (Instant(0, "INT"),)
    doc, status = run_command(det, "stop")
    assert status == 0
    assert render_machine(doc) == (GOLDEN / "deterministic_stop.json").read_text("utf-8")

    chain = parse_scenario((FIXTURES / "signal_chain.scn").read_text(encoding="utf-8"))
    problem = chain.build_problem()
    X = forward_evaluate(problem)
    assert X.rows[0] == (10, 3, 3, 0)
    doc, status = run_command(chain, "signal")
    assert status == 0
    assert doc["rows"][0]["brute_force"] == "10"
    assert render_machine(doc) == (GOLDEN / "signal_chain_signal.json").read_text("utf-8")
    _report(10, True, "branch (2), deterministic (3), signal chain (10) reproduce via CLI goldens")


def test_criterion_11_suite_determinism(tmp_path):
    names = ["branch.scn", "deterministic.scn", "signal_chain.scn"]
    for name in names:
        doc, status = run_suite(parse_scenario((FIXTURES / name).read_text(encoding="utf-8")))
        assert status == 0
        outs = [render_machine(doc).encode("utf-8")]
        for jobs in ("1", "4"):
            out = tmp_path / f"{name}.{jobs}.json"
            argv = ["suite", "--scenario", str(FIXTURES / name), "--format", "machine"]
            assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2], name
    detail = f"suite output byte-identical in-process and at --jobs 1 and 4 on {len(names)} fixtures"
    _report(11, True, detail)
