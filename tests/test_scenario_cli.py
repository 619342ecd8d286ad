from __future__ import annotations

import argparse
import contextlib
import copy
import errno
import hashlib
import json
import os
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import meyerstop.cli as cli_module
import meyerstop.lattice as lattice_module
import meyerstop.representation as representation_module
import meyerstop.scenario as scenario_module
import meyerstop.snell as snell_module
from meyerstop import checks
from meyerstop.cli import main, render_machine, run_command, run_suite
from meyerstop.lattice import INT, Instant, Kind, LatticeError, LatticeProcess, field_partitions
from meyerstop.projection import is_left_usc_in_expectation, is_right_usc_in_expectation
from meyerstop.representation import forward_evaluate, stopping_value
from meyerstop.scenario import (
    KNOWN_FIELDS,
    OPTIONAL_EXTREME,
    PREDICTABLE_EXTREME,
    RANDOM_BETWEEN,
    REGIMES,
    RandomInstanceParams,
    ScenarioError,
    generate_instance,
    parse_scenario,
    render_scenario,
)
from meyerstop.snell import enumerate_divided_stops, snell_brute_force

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load(name: str):
    return parse_scenario((FIXTURES / name).read_text(encoding="utf-8"))


def machine_runs(tmp_path, command: str, scenario: Path) -> list[tuple[int, bytes]]:
    """(exit status, report file) of `main` at --jobs 1 and at --jobs 4."""
    runs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"{scenario.stem}.{command}.{jobs}.json"
        argv = [command, "--scenario", str(scenario), "--format", "machine", "--out", str(out)]
        runs.append((main(argv + ["--jobs", jobs]), out.read_bytes()))
    return runs


def test_fixture_round_trips():
    names = sorted(path.name for path in FIXTURES.glob("*.scn"))
    assert "odd_power.scn" in names
    for name in names:
        sc = load(name)
        assert parse_scenario(render_scenario(sc)) == sc


@pytest.mark.parametrize("seed", range(8))
def test_generated_round_trip_and_determinism(seed):
    for regime in REGIMES:
        params = RandomInstanceParams(
            seed=seed, epochs=1 + seed % 4, max_paths=2 + seed % 9, regime=regime
        )
        sc = generate_instance(params)
        again = generate_instance(params)
        assert render_scenario(sc) == render_scenario(again)
        assert parse_scenario(render_scenario(sc)) == sc


# SHA-256 of the rendered instances below.  Generated instances are pure
# functions of their params, and the goldens and benchmark lattices are built
# from them; a change to the RNG call order or to a drawn range moves it.
GENERATED_SHA256 = "d6268da74d59aa6011c2b4e6d2022fc75da6ae959b49628561821b2be990c1eb"


def test_generated_instances_do_not_move():
    digest = hashlib.sha256()
    for seed in range(50):
        for epochs in range(1, 5):
            for regime in REGIMES:
                params = RandomInstanceParams(
                    seed=seed, epochs=epochs, max_paths=2 + seed % 11, regime=regime
                )
                digest.update(render_scenario(generate_instance(params)).encode())
    assert digest.hexdigest() == GENERATED_SHA256


@settings(max_examples=120, derandomize=True, deadline=None)
@example(seed=0, epochs=1, max_paths=2, regime=RANDOM_BETWEEN, power=1, given_X=False)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    epochs=st.integers(min_value=1, max_value=3),
    max_paths=st.integers(min_value=2, max_value=6),
    regime=st.sampled_from(REGIMES),
    power=st.sampled_from([None, 1, 3, 5]),
    given_X=st.booleans(),
)
def test_a_rendered_scenario_parses_back_and_renders_the_same(
    seed, epochs, max_paths, regime, power, given_X
):
    # g as generated (affine) or rebuilt as an odd power, the bundle given by
    # L or by X = forward(L): parsing the rendering gives the scenario back,
    # and rendering that gives the same bytes
    sc = generate_instance(RandomInstanceParams(seed, epochs, max_paths, regime))
    if power is not None:
        sc = sc._replace(g_spec={**sc.g_spec, "kind": "odd_power", "power": power})
    if given_X:
        X = forward_evaluate(sc.build_problem())
        sc = sc._replace(processes={**sc.processes, "X": X}, signal=None, reward="X")
    text = render_scenario(sc)
    again = parse_scenario(text)
    assert again == sc
    assert render_scenario(again) == text


def test_generated_regimes():
    pred = generate_instance(RandomInstanceParams(seed=4, epochs=3, regime=PREDICTABLE_EXTREME))
    assert pred.meyer.meyer_fields[0] == pred.lattice.initial_partition()
    for k in range(1, 4):
        assert pred.meyer.meyer_fields[k] == pred.lattice.filtration[k - 1]
    opt = generate_instance(RandomInstanceParams(seed=4, epochs=3, regime=OPTIONAL_EXTREME))
    assert tuple(opt.meyer.meyer_fields) == tuple(opt.lattice.filtration)
    mid = generate_instance(RandomInstanceParams(seed=4, epochs=3, regime=RANDOM_BETWEEN))
    from meyerstop.lattice import validate_lattice

    assert validate_lattice(mid.lattice, mid.meyer).ok


def test_parse_errors():
    base = json.loads((FIXTURES / "branch.scn").read_text(encoding="utf-8"))

    bad = dict(base)
    bad["paths"] = [
        {"id": "a", "probability": "1/2"},
        {"id": "b", "probability": "2/5"},
    ]
    with pytest.raises(ScenarioError, match="probabilities sum to 9/10"):
        parse_scenario(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["filtration"][1] = [["a", "b"], ["b"]]
    with pytest.raises(ScenarioError, match=r"filtration epoch 1.*'b'.*atoms 0 and 1"):
        parse_scenario(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["processes"]["Z"]["a"][0] = "1/0"
    with pytest.raises(ScenarioError, match="malformed rational"):
        parse_scenario(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["meyer"][0] = [["a"], ["b"]]
    with pytest.raises(ScenarioError, match="F_0 does not refine G_0"):
        parse_scenario(json.dumps(bad))

    bad = dict(base)
    bad["mystery"] = 1
    with pytest.raises(ScenarioError, match="unknown fields"):
        parse_scenario(json.dumps(bad), strict=True)
    with pytest.warns(UserWarning, match="mystery"):
        parse_scenario(json.dumps(bad), strict=False)


def test_golden_snell_branch():
    sc = load("branch.scn")
    # re-derive the frozen value with the in-repo oracle before comparing
    brute = snell_brute_force(sc.lattice, sc.meyer, sc.processes["Z"])
    assert brute.value == Fraction(2)
    doc, status = run_command(sc, "snell")
    assert status == 0
    assert render_machine(doc) == (GOLDEN / "branch_snell.json").read_text(encoding="utf-8")


def test_golden_stop_deterministic():
    sc = load("deterministic.scn")
    brute = snell_brute_force(sc.lattice, sc.meyer, sc.processes["Z"])
    assert brute.value == Fraction(3)
    assert brute.optimizers[0].assignment == (Instant(0, INT),)
    doc, status = run_command(sc, "stop")
    assert status == 0
    assert doc["delta"]["time"] == {"w": "(0,INT)"}
    assert render_machine(doc) == (GOLDEN / "deterministic_stop.json").read_text(
        encoding="utf-8"
    )


def test_golden_signal_chain(tmp_path):
    sc = load("signal_chain.scn")
    problem = sc.build_problem()
    from meyerstop.representation import forward_evaluate, stopping_value
    from meyerstop.snell import enumerate_divided_stops

    X = forward_evaluate(problem)
    assert X.rows[0] == (10, 3, 3, 0)
    for ell in sc.ell_grid:
        best = max(
            stopping_value(problem.with_X(X), ell, q)
            for q in enumerate_divided_stops(sc.lattice, sc.meyer)
        )
        assert best == Fraction(10)
    golden = (GOLDEN / "signal_chain_signal.json").read_bytes()
    doc, status = run_command(sc, "signal")
    assert status == 0
    assert render_machine(doc).encode("utf-8") == golden
    assert machine_runs(tmp_path, "signal", FIXTURES / "signal_chain.scn") == [(0, golden)] * 2


def test_cli_validate_broken_file(tmp_path, capsys):
    broken = tmp_path / "broken.scn"
    base = json.loads((FIXTURES / "branch.scn").read_text(encoding="utf-8"))
    base["paths"][0]["probability"] = "1/3"
    broken.write_text(json.dumps(base), encoding="utf-8")
    status = main(["validate", "--scenario", str(broken)])
    assert status == 1
    assert "probabilities sum" in capsys.readouterr().err


def test_cli_commands_smoke(capsys):
    for cmd in ("validate", "project", "snell", "decompose", "stop", "oracle", "suite"):
        status = main([cmd, "--scenario", str(FIXTURES / "branch.scn")])
        assert status == 0, (cmd, capsys.readouterr())
        capsys.readouterr()
    for cmd in ("represent", "signal"):
        status = main([cmd, "--scenario", str(FIXTURES / "signal_chain.scn")])
        assert status == 0
        capsys.readouterr()


def test_cli_seeded_scenario(monkeypatch, capsys):
    status = main(["validate", "--seed", "9"])
    assert status == 0
    capsys.readouterr()
    monkeypatch.setenv("MEYERSTOP_SEED", "9")
    status = main(["validate"])
    assert status == 0
    capsys.readouterr()


def test_cli_ell_grid_flag(capsys):
    status = main(
        ["signal", "--scenario", str(FIXTURES / "signal_chain.scn"), "--ell-grid", "1,3/2"]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "ell: 3/2" in out



@pytest.mark.parametrize(
    "grid, message",
    [
        ("1/0", "error: --ell-grid[0]: malformed rational '1/0' (Fraction(1, 0))"),
        ("1,x", "error: --ell-grid[1]: malformed rational 'x' (Invalid literal for Fraction: 'x')"),
    ],
)
def test_a_malformed_ell_grid_is_a_validation_failure(grid, message, capsys):
    # a level is read as a scenario reads a rational: one error line, exit 1
    argv = ["signal", "--scenario", str(FIXTURES / "signal_chain.scn"), "--ell-grid", grid]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("command", ["oracle", "signal", "suite"])
def test_a_negative_guard_is_a_validation_failure(command, capsys):
    # a guard bounds a count of stopping times: below 0 it is rejected with
    # one error line, before any command could read it as exceeded or SKIP
    assert main([command, "--seed", "3", "--guard", "-1"]) == 1
    message = "error: --guard: expected a count of at least 0, got -1\n"
    assert capsys.readouterr() == ("", message)
    # a guard of 0 stays valid: it is exceeded by any listing (`oracle`'s
    # optimizers, `signal`'s divided stops), and the suite lists nothing,
    # so its signal row folds and passes
    assert main([command, "--seed", "3", "--guard", "0"]) == (0 if command == "suite" else 2)
    out, err = capsys.readouterr()
    if command == "suite":
        assert "PASS representation/universal-signal\n" in out
    else:
        listed = 2 if command == "oracle" else 103
        assert (out, err) == ("", f"error: {listed} stopping times exceed the guard of 0\n")


@pytest.mark.parametrize(
    "parts, code", [((), errno.EISDIR), (("missing", "r.json"), errno.ENOENT)]
)
def test_an_unwritable_out_path_is_a_validation_failure(parts, code, tmp_path, capsys):
    # the report file is opened inside the handled block, as the scenario
    # file is: one error line and exit 1, not a traceback
    out = tmp_path.joinpath(*parts)
    argv = ["snell", "--scenario", str(FIXTURES / "branch.scn"), "--out", str(out)]
    assert main(argv) == 1
    message = f"error: [Errno {code}] {os.strerror(code)}: {str(out)!r}\n"
    assert capsys.readouterr() == ("", message)


def test_stop_builds_one_envelope_and_one_decomposition(monkeypatch, capsys):
    # the delta and sigma stops read the envelope and decomposition that the
    # command built, once each
    built = []
    for name in ("snell_envelope", "mertens_decompose"):
        real = getattr(snell_module, name)

        def counted(*args, name=name, real=real):
            built.append(name)
            return real(*args)

        for module in (cli_module, snell_module):
            monkeypatch.setattr(module, name, counted)
    assert main(["stop", "--scenario", str(FIXTURES / "deterministic.scn")]) == 0
    assert "relaxation_exact: True" in capsys.readouterr().out
    assert built == ["snell_envelope", "mertens_decompose"]


def test_suite_byte_identical_across_jobs(tmp_path):
    # `--jobs` is accepted and changes nothing
    for name in ("branch.scn", "deterministic.scn", "signal_chain.scn"):
        doc, status = run_suite(load(name))
        expected = (status, render_machine(doc).encode("utf-8"))
        assert status == 0
        assert machine_runs(tmp_path, "suite", FIXTURES / name) == [expected] * 2, name


def test_suite_failure_exit_code(monkeypatch, tmp_path):
    # force one property to fail and confirm the exit-status contract, in
    # the library and through the CLI at any --jobs
    from meyerstop import checks

    sc = load("branch.scn")
    monkeypatch.setattr(
        checks, "check_snell_oracle", lambda *a, **k: "forced mismatch"
    )
    doc, status = run_suite(sc)
    assert status == 2
    assert any(
        row["status"] == "FAIL" and row["detail"] == "forced mismatch"
        for row in doc["checks"]
    )
    expected = (status, render_machine(doc).encode("utf-8"))
    assert machine_runs(tmp_path, "suite", FIXTURES / "branch.scn") == [expected] * 2


def test_suite_error_is_the_same_across_jobs(monkeypatch, capsys):
    # two rows raise; the first in canonical order wins at any --jobs
    from meyerstop import checks
    from meyerstop.lattice import LatticeError

    def raising(message):
        def check(*args, **kwargs):
            raise LatticeError(message)

        return check

    monkeypatch.setattr(checks, "check_snell_oracle", raising("first"))
    monkeypatch.setattr(checks, "check_mertens", raising("second"))
    sc = load("branch.scn")
    with pytest.raises(LatticeError, match="^first$"):
        run_suite(sc)
    for jobs in ("1", "4"):
        argv = ["suite", "--scenario", str(FIXTURES / "branch.scn"), "--jobs", jobs]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: first\n"


def test_represent_solves_reward_scenario(tmp_path, capsys):
    # flip the signal fixture into a reward scenario and solve it back
    sc = load("signal_chain.scn")
    problem = sc.build_problem()
    from meyerstop.representation import forward_evaluate
    from meyerstop.scenario import Scenario

    X = forward_evaluate(problem)
    flipped = Scenario(
        lattice=sc.lattice,
        meyer=sc.meyer,
        processes={"X": X},
        g_spec=sc.g_spec,
        mu=sc.mu,
        reward="X",
        ell_grid=sc.ell_grid,
    )
    path = tmp_path / "reward.scn"
    path.write_text(render_scenario(flipped), encoding="utf-8")
    status = main(["represent", "--scenario", str(path)])
    assert status == 0
    out = capsys.readouterr().out
    assert "direction: solve" in out
    status = main(["signal", "--scenario", str(path)])
    assert status == 0


def test_suite_is_green_on_generated_instances():
    # the whole regression battery passes on in-bounds generated instances
    for seed in (2, 13):
        sc = generate_instance(RandomInstanceParams(seed=seed, epochs=2, max_paths=5))
        doc, status = run_suite(sc)
        assert status == 0 and doc["failed"] == 0


def test_golden_suite_seed62():
    # the 745-stopping-time lattice: every suite check, certificates and
    # the universal-signal rows included
    sc = generate_instance(
        RandomInstanceParams(seed=62, epochs=4, max_paths=6, regime=OPTIONAL_EXTREME)
    )
    doc, status = run_suite(sc)
    assert status == 0
    assert render_machine(doc) == (GOLDEN / "seed62_suite.json").read_text(encoding="utf-8")


def _seed58():
    # 4 paths, 123 Lambda-stopping times; Z meets the sandwich preconditions
    return generate_instance(
        RandomInstanceParams(seed=58, epochs=2, max_paths=5, regime=OPTIONAL_EXTREME)
    )


def test_golden_suite_seed58():
    # the one golden where `stop/sandwich[Z]` runs and reads PASS
    doc, status = run_suite(_seed58())
    assert status == 0
    assert {r["property"]: r["status"] for r in doc["checks"]}["stop/sandwich[Z]"] == "PASS"
    assert render_machine(doc) == (GOLDEN / "seed58_suite.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "message",
    [
        "optimal time (TERMINAL,) escapes the sandwich",
        "entry-time candidates failed their optimality certificates",
    ],
)
def test_a_failed_sandwich_is_a_fail_row(message, monkeypatch, tmp_path):
    # a LatticeError from the sandwich construction is that row's verdict,
    # not an error that ends the whole suite without a report
    def failing(*args):
        raise LatticeError(message)

    monkeypatch.setattr(checks, "smallest_largest_optimal", failing)
    doc, status = run_suite(_seed58())
    rows = {r["property"]: r for r in doc["checks"]}
    assert status == 2 and doc["failed"] == 2
    for name in ("L", "Z"):
        assert rows[f"stop/sandwich[{name}]"]["status"] == "FAIL"
        assert rows[f"stop/sandwich[{name}]"]["detail"] == message
    scn, out = tmp_path / "s.scn", tmp_path / "s.out"
    scn.write_text(render_scenario(_seed58()), encoding="utf-8")
    assert main(["suite", "--scenario", str(scn), "--format", "machine", "--out", str(out)]) == 2
    assert json.loads(out.read_text(encoding="utf-8")) == doc


@pytest.mark.parametrize("seed", range(10))
def test_an_unrepresentable_reward_skips_the_signal_row(seed):
    # the generated signal's reward Z, named as the reward: the signal row
    # cannot solve for a signal and SKIPs, while the round trip FAILs
    sc = generate_instance(RandomInstanceParams(seed=seed))
    sc = sc._replace(signal=None, reward="Z")
    doc, status = run_suite(sc)
    rows = {r["property"]: r for r in doc["checks"]}
    signal, roundtrip = rows["representation/universal-signal"], rows["representation/round-trip"]
    assert status == 2 and roundtrip["status"] == "FAIL"
    assert signal["status"] == "SKIP" and signal["detail"] == roundtrip["detail"]
    assert signal["detail"].startswith("X not representable with this (g, mu)")


def test_a_negative_representation_reward_skips_the_signal_row(tmp_path, capsys):
    # intercepts of -50 make the forward reward X negative: the signal row
    # SKIPs on the reward precondition and every other row still runs, while
    # `signal` itself is a validation failure that names the fault
    doc = json.loads(render_scenario(generate_instance(RandomInstanceParams(seed=3))))
    doc["g"]["a"] = {path: ["-50"] * len(row) for path, row in doc["g"]["a"].items()}
    scenario = tmp_path / "negative.scn"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["suite", "--scenario", str(scenario), "--format", "machine"]) == 0
    rows = json.loads(capsys.readouterr().out)["checks"]
    statuses = [row["status"] for row in rows]
    assert (statuses.count("PASS"), statuses.count("SKIP"), len(rows)) == (25, 3, 28)
    skipped = {row["property"]: row["detail"] for row in rows if row["status"] == "SKIP"}
    assert sorted(skipped) == [
        "representation/universal-signal",
        "stop/sandwich[L]",
        "stop/sandwich[Z]",
    ]
    assert skipped["representation/universal-signal"] == (
        "X is not a reward: process must be nonnegative"
    )
    assert main(["signal", "--scenario", str(scenario)]) == 1
    assert capsys.readouterr() == ("", "error: X is not a reward: process must be nonnegative\n")


def test_the_signal_check_tests_its_reward_once(reward_walks):
    # the check and both public USC predicates test X as a reward, and the
    # answer kept on X serves every test after the first: one walk
    sc = load("signal_chain.scn")
    problem = sc.build_problem()
    assert checks.check_universal_signal(problem, sc.ell_grid) is None
    X = problem.reward
    assert X == forward_evaluate(problem)
    assert is_left_usc_in_expectation(sc.lattice, sc.meyer, X).ok
    assert is_right_usc_in_expectation(sc.lattice, sc.meyer, X).ok
    assert len(reward_walks) == 1 and reward_walks[0] is X
    # a kept fault serves as well: both predicates refuse, after one walk
    negative = LatticeProcess(tuple(tuple(-v for v in column) for column in X.columns))
    for predicate in (is_left_usc_in_expectation, is_right_usc_in_expectation):
        with pytest.raises(LatticeError, match="process must be nonnegative"):
            predicate(sc.lattice, sc.meyer, negative)
    assert len(reward_walks) == 2 and reward_walks[1] is negative


@pytest.mark.parametrize("name, walks", [("branch.scn", 2), ("signal_chain.scn", 3)])
def test_the_suite_tests_a_reward_once_per_row_that_needs_it(name, walks, reward_walks):
    # every row that needs a reward tests it (the suite's own gate, the
    # envelope, the oracle, the USC equivalence row, the sandwich and, on a
    # bundle, the signal check), and the decomposition tests the envelope;
    # the answer kept on each process serves all but its first test, so the
    # suite walks each reward, the envelope and a bundle's X once
    sc = load(name)
    assert run_suite(sc)[0]["ok"]
    assert len(reward_walks) == len({id(p) for p in reward_walks}) == walks, reward_walks
    # asked again, the suite's processes answer from what they keep
    reward_fault = lattice_module.reward_fault
    rewards = [p for p in sc.processes.values() if reward_fault(sc.lattice, sc.meyer, p) is None]
    assert rewards and len(reward_walks) == walks
    for process in rewards:
        # a `_replace`d copy carries no answer: the row walks it once
        fresh = process._replace()
        reward_walks.clear()
        assert checks.check_usc_equivalence(sc.lattice, sc.meyer, fresh) is None
        assert len(reward_walks) == 1 and reward_walks[0] is fresh


@pytest.mark.parametrize(
    "name, command, forwards, tables, solves, weighings",
    [
        pytest.param("signal_chain.scn", "suite", 2, 1, 1, 4, id="suite-2-1"),
        pytest.param("signal_chain.scn", "signal", 1, 1, 0, 3, id="signal-1-1"),
        pytest.param("odd_power.scn", "suite", 1, 1, 1, 3, id="odd_power.scn-suite-1-1"),
        pytest.param("odd_power.scn", "signal", 1, 1, 1, 3, id="odd_power.scn-signal-1-1"),
    ],
)
def test_a_bundle_evaluates_its_reward_and_weighs_its_lines_once(
    name, command, forwards, tables, solves, weighings, monkeypatch
):
    # the problem keeps its reward, its accrual table, its line table and
    # its solved S.  On signal_chain.scn, given by L, the suite's round-trip
    # and signal rows share one forward evaluation (the solve's closing
    # check is the second) and `signal` solves nothing.  On odd_power.scn,
    # given by X, the suite's round-trip and signal rows share one solve,
    # whose closing check is the one forward evaluation.  The weighings are
    # the accrual table, the reward under the lines and one per forward
    # evaluation; `signal`'s listing check reads the fold's table
    counts = Counter()
    for fn in ("_forward", "_accrued", "_solve", "_weighted"):

        def counted(*args, _real=getattr(representation_module, fn), _name=fn):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(representation_module, fn, counted)
    doc, status = run_command(load(name), command)
    assert status == 0 and doc["ok"]
    # a Counter reads a function never called as 0
    assert counts == Counter(
        _forward=forwards, _accrued=tables, _solve=solves, _weighted=weighings
    )


def test_a_bundle_that_is_not_representable_is_solved_once(monkeypatch):
    # X = forward(L) moved by 1/3 on one atom: the round-trip row fails and
    # the signal row skips on the one solve's kept error
    sc = generate_instance(RandomInstanceParams(seed=0, epochs=3, max_paths=8))
    problem = sc.build_problem()
    atoms = field_partitions(problem.lattice, problem.meyer, Kind.LAMBDA)[2]
    atom = next(a for a in atoms if sorted(a) == [0, 1])
    columns = [list(col) for col in forward_evaluate(problem).columns]
    for p in atom:
        columns[2][p] += Fraction(1, 3)
    X = LatticeProcess(tuple(map(tuple, columns)))
    bundle = sc._replace(processes={**sc.processes, "X": X}, signal=None, reward="X")
    calls = []
    solve = representation_module._solve

    def counted(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(representation_module, "_solve", counted)
    doc, status = run_suite(bundle)
    rows = {row["property"]: row for row in doc["checks"]}
    assert status == cli_module.PROPERTY_FAILURE and len(calls) == 1
    trip, signal = rows["representation/round-trip"], rows["representation/universal-signal"]
    assert (trip["status"], signal["status"]) == ("FAIL", "SKIP")
    assert trip["detail"] == signal["detail"] == (
        "X not representable with this (g, mu): forward check failed"
    )


def test_signal_fails_when_its_fold_and_listing_disagree(monkeypatch, capsys):
    # `signal` lists the divided stops and checks every row's fold against
    # the listing: a fold that reports one optimizer too many exits 2 with
    # one error line and no report
    argv = ["signal", "--scenario", str(FIXTURES / "signal_chain.scn")]
    fold = representation_module._fold

    def one_more(*args):
        folded = fold(*args)
        best, ways, total = folded.top
        return folded._replace(top=(best, ways + 1, total))

    monkeypatch.setattr(representation_module, "_fold", one_more)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: level ") and err.count("\n") == 1, err
    assert err.endswith(" optimizers, the listing 10 with 1\n"), err


def test_a_guarded_delta_maximum_is_a_skip_row(monkeypatch):
    # the oracle and delta rows read one fold's value, which no guard
    # bounds: at a command guard of 2, below branch.scn's 11 stopping times,
    # they PASS, and a maximum off by one still makes the delta row FAIL
    sc = load("branch.scn")
    rows = {r["property"]: r for r in run_command(sc, "suite", guard=2)[0]["checks"]}
    for name in ("snell/oracle[Z]", "stop/delta[Z]"):
        assert rows[name] == {"property": name, "status": "PASS", "detail": ""}
    maximum = checks._maximum

    def off_by_one(*args):
        opt = maximum(*args)
        return opt._replace(value=opt.value + 1)

    monkeypatch.setattr(checks, "_maximum", off_by_one)
    rows = {r["property"]: r for r in run_command(sc, "suite", guard=2)[0]["checks"]}
    assert rows["stop/delta[Z]"]["status"] == "FAIL"
    assert rows["stop/delta[Z]"]["detail"].startswith("divided-stop maximum "), rows


def test_golden_stop_seed58():
    doc, status = run_command(_seed58(), "stop")
    assert status == 0
    assert render_machine(doc) == (GOLDEN / "seed58_stop.json").read_text(encoding="utf-8")


def test_golden_represent_odd_power():
    # g = a + b * ell**3 solves exactly on S = L**3; this fixture's S is a
    # cube on every cell, so the signal is exact
    sc = load("odd_power.scn")
    assert sc.g_spec["kind"] == "odd_power" and sc.reward == "X"
    doc, status = run_command(sc, "represent")
    assert status == 0 and doc["direction"] == "solve"
    assert render_machine(doc) == (GOLDEN / "odd_power_represent.json").read_text(
        encoding="utf-8"
    )
    rows = [[Fraction(v) for v in doc["signal"][pid]] for pid in sc.lattice.path_ids]
    problem = sc.build_problem()
    again = forward_evaluate(problem.with_L(LatticeProcess.from_rows(rows)))
    assert again.columns == sc.processes["X"].columns


def test_golden_signal_odd_power():
    # every reading is exact; the brute force is checked against one
    # `stopping_value` per divided stop
    sc = load("odd_power.scn")
    doc, status = run_command(sc, "signal")
    assert status == 0 and doc["ok"]
    assert render_machine(doc) == (GOLDEN / "odd_power_signal.json").read_text(
        encoding="utf-8"
    )
    problem = sc.build_problem()
    stops = enumerate_divided_stops(sc.lattice, sc.meyer)
    for row in doc["rows"]:
        values = [stopping_value(problem, Fraction(row["ell"]), q) for q in stops]
        best = max(values)
        assert (row["brute_force"], row["optimizers"]) == (str(best), values.count(best))


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # the parser is built on the first call and kept: after calls with
    # --guard 0, --format table and a rejected command, the first call
    # (with --strict) reads as it did
    scenario = str(FIXTURES / "branch.scn")
    first = ["snell", "--scenario", scenario, "--strict", "--format", "machine"]
    calls = [
        first,
        ["oracle", "--scenario", scenario, "--guard", "0"],
        ["stop", "--scenario", scenario, "--format", "table"],
        ["optimize", "--scenario", scenario],
        first,
    ]
    seen = []
    for argv in calls:
        try:
            status = main(argv)
        except SystemExit as exc:
            status = f"exit {exc.code}"
        seen.append((capsys.readouterr(), status))
    assert seen[-1] == seen[0] and seen[0][1] == 0 and seen[0][0].out
    assert seen[1][1] == 2 and seen[3][1] == "exit 2"
    assert "invalid choice: 'optimize'" in seen[3][0].err

    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli_module._parser.cache_clear()
    try:
        assert main(first) == main(calls[2]) == 0
    finally:
        cli_module._parser.cache_clear()
    assert built == ["meyerstop"]


def test_a_parse_reads_each_distinct_rational_once():
    # one parse keeps one Fraction per distinct string; equal values in
    # other spellings read equal, and a second parse builds its own
    doc = json.loads((FIXTURES / "branch.scn").read_text(encoding="utf-8"))
    doc["processes"]["Z"] = {"a": ["1/2", "2/4", "4", "0"], "b": ["1/2", "1", "0", "0"]}
    text = json.dumps(doc)
    sc = parse_scenario(text)
    (a, b) = sc.processes["Z"].rows
    assert a[:2] == (Fraction(1, 2),) * 2 and a[0] is b[0] is sc.lattice.paths[0].probability
    assert render_scenario(sc).count('"1/2"') == 5
    again = parse_scenario(text)
    assert again == sc and again.processes["Z"].rows[0][0] is not a[0]
    for name in ("branch.scn", "deterministic.scn", "odd_power.scn", "signal_chain.scn"):
        assert load(name) == load(name)


def test_a_repeated_malformed_rational_names_its_first_cell():
    # a string that fails to parse is never kept, so each parse raises at
    # the first cell that holds it, wherever it repeats
    doc = json.loads((FIXTURES / "branch.scn").read_text(encoding="utf-8"))
    doc["processes"]["Z"]["b"][3] = "1/x"
    doc["processes"]["Z"]["a"][2] = "1//2"
    doc["processes"]["Y"] = {"a": ["1/x"] * 4, "b": ["1/x"] * 4}
    for _ in range(2):
        with pytest.raises(ScenarioError, match=r"^processes\.Y\.a\[0\]: malformed rational '1/x'"):
            parse_scenario(json.dumps(doc))
    del doc["processes"]["Y"]
    with pytest.raises(ScenarioError, match=r"^processes\.Z\.a\[2\]: malformed rational '1//2'"):
        parse_scenario(json.dumps(doc))
    doc["processes"]["Z"]["a"][2] = "1/x"
    doc["ell_grid"] = ["1/x"]
    with pytest.raises(ScenarioError, match=r"^processes\.Z\.a\[2\]: malformed rational '1/x'"):
        parse_scenario(json.dumps(doc))
    doc["paths"][1]["probability"] = "1/x"
    with pytest.raises(ScenarioError, match=r"^paths\[1\]\.probability: malformed rational '1/x'"):
        parse_scenario(json.dumps(doc))


def test_g_is_parsed_once_per_command(monkeypatch, capsys):
    # parse_scenario keeps the family it parsed to canonicalize the spec; a
    # scenario built from a g_spec alone parses it on first use, once
    parsed = []
    real = scenario_module._g_from_spec

    def counted(spec, lattice, memo):
        parsed.append(spec["kind"])
        return real(spec, lattice, memo)

    monkeypatch.setattr(scenario_module, "_g_from_spec", counted)
    sc = load("odd_power.scn")
    problem = sc.build_problem()
    assert sc.build_problem().g is problem.g is sc.g and parsed == ["odd_power"]
    assert main(["represent", "--scenario", str(FIXTURES / "odd_power.scn")]) == 0
    assert "direction: solve" in capsys.readouterr().out
    assert parsed == ["odd_power"] * 2

    built = sc._replace(g_spec={**sc.g_spec, "power": 1})
    assert parsed == ["odd_power"] * 2
    assert built.build_problem().g.power == 1 and built.build_problem().g is built.g
    assert parsed == ["odd_power"] * 3
    assert built.g.a == sc.g.a and sc.g.power == 3


def test_g_is_canonicalized_once_per_scenario(monkeypatch):
    # parse_scenario hands over the canonical spec it built; a scenario
    # built by hand canonicalizes its g_spec on its first render, once
    made = []
    real = scenario_module._canonical_g_spec

    def counted(raw, *args):
        made.append(list(raw))
        return real(raw, *args)

    monkeypatch.setattr(scenario_module, "_canonical_g_spec", counted)
    sc = load("odd_power.scn")
    text = render_scenario(sc)
    assert render_scenario(sc) == text and len(made) == 1
    shuffled = {key: sc.g_spec[key] for key in reversed(list(sc.g_spec))}
    built = sc._replace(g_spec=shuffled)
    assert list(built.g_spec) != list(sc.g_spec) and len(made) == 1
    assert render_scenario(built) == render_scenario(built) == text
    assert made[1:] == [list(shuffled)]


def test_each_command_builds_one_tree_per_kind(monkeypatch, tmp_path, capsys):
    # every fold, count, walk, hull pass and conditioning of a command reads
    # the atom tree kept on its lattice: `oracle` builds the Lambda tree, and
    # `suite` one per kind (its projections read the optional one).  Only
    # stop/delta's conditional identity calls the public
    # `conditional_expectation`, once per start of each valid reward
    built, conditioned, starts = [], [], []
    real_tree, real_expectation, real_delta = (
        lattice_module._AtomTree,
        lattice_module.conditional_expectation,
        checks.check_delta,
    )

    class Counted(real_tree):
        def __init__(self, lattice, meyer, kind):
            built.append(kind)
            super().__init__(lattice, meyer, kind)

    def counted_expectation(*args):
        conditioned.append(args)
        return real_expectation(*args)

    def counted_delta(lattice, meyer, process, zbar, decomp, given):
        starts.extend(given)
        return real_delta(lattice, meyer, process, zbar, decomp, given)

    monkeypatch.setattr(lattice_module, "_AtomTree", Counted)
    monkeypatch.setattr(checks, "check_delta", counted_delta)
    for module in [m for key, m in sys.modules.items() if key.partition(".")[0] == "meyerstop"]:
        if getattr(module, "conditional_expectation", None) is real_expectation:
            monkeypatch.setattr(module, "conditional_expectation", counted_expectation)
    heavy = tmp_path / "seed62.scn"
    params = RandomInstanceParams(seed=62, epochs=4, max_paths=6, regime=OPTIONAL_EXTREME)
    heavy.write_text(render_scenario(generate_instance(params)), encoding="utf-8")
    branch = FIXTURES / "branch.scn"
    cases = [
        ("oracle", branch, [Kind.LAMBDA], 0),
        ("suite", heavy, list(Kind), 2),
        ("suite", branch, list(Kind), 1),
    ]
    for command, path, kinds, rewards in cases:
        for seen in (built, conditioned, starts):
            seen.clear()
        assert main([command, "--scenario", str(path)]) == 0, (command, path)
        assert Counter(built) == Counter(kinds), (command, path.name, built)
        assert len(conditioned) == len(starts) == rewards, (command, path.name)
    capsys.readouterr()


def test_each_command_validates_its_lattice_once(monkeypatch, capsys):
    # parse_scenario's validate_lattice report is kept on the lattice, and
    # every tree build and the suite's lattice/valid row read it; a generated
    # scenario is validated at its first tree
    computed = []
    real = lattice_module._structure_problems

    def counted(lattice, meyer):
        computed.append(meyer)
        return real(lattice, meyer)

    monkeypatch.setattr(lattice_module, "_structure_problems", counted)
    for command in ("oracle", "suite", "validate"):
        for source in (["--scenario", str(FIXTURES / "branch.scn")], ["--seed", "3"]):
            computed.clear()
            assert main([command, *source]) == 0, (command, source)
            assert len(computed) == 1, (command, source, len(computed))
    capsys.readouterr()


def test_boolean_epochs_and_power_are_rejected():
    # JSON true is a Python int equal to 1, which is a valid epoch count and
    # an odd power; it would render back as "epochs": true
    doc = json.loads((FIXTURES / "branch.scn").read_text(encoding="utf-8"))
    assert doc["epochs"] == 1
    doc["epochs"] = True
    with pytest.raises(ScenarioError, match="^epochs: expected a positive integer"):
        parse_scenario(json.dumps(doc))
    doc = json.loads((FIXTURES / "odd_power.scn").read_text(encoding="utf-8"))
    doc["g"]["power"] = True
    with pytest.raises(ScenarioError, match=r"^g\.power: expected an odd positive integer"):
        parse_scenario(json.dumps(doc))
    doc["g"]["power"] = 1
    assert parse_scenario(json.dumps(doc)).g_spec["power"] == 1


@pytest.mark.parametrize("key, value", [("pwer", 5), ("tolerance", "1/1000000000")])
def test_unknown_g_keys_follow_strict_mode(key, value):
    # a misspelt power would otherwise run with the default power 3, and a
    # retired g.tolerance would be accepted in silence
    doc = json.loads((FIXTURES / "odd_power.scn").read_text(encoding="utf-8"))
    doc["g"][key] = value
    text = json.dumps(doc)
    with pytest.raises(ScenarioError, match=rf"^unknown g fields \['{key}'\] \(strict mode\)$"):
        parse_scenario(text, strict=True)
    with pytest.warns(UserWarning, match=rf"^ignoring unknown g fields \['{key}'\]$"):
        lenient = parse_scenario(text, strict=False)
    assert lenient.g_spec == load("odd_power.scn").g_spec


def test_a_scenario_names_one_of_signal_and_reward(tmp_path, capsys):
    # with both named, build_problem would solve the reward and drop the signal
    doc = json.loads((FIXTURES / "signal_chain.scn").read_text(encoding="utf-8"))
    doc["reward"] = "L"
    text = json.dumps(doc)
    for strict in (True, False):
        with pytest.raises(ScenarioError, match="^signal and reward: name exactly one, not both$"):
            parse_scenario(text, strict=strict)
    sc = load("signal_chain.scn")
    with pytest.raises(ScenarioError, match="name exactly one"):
        sc._replace(reward="L")
    path = tmp_path / "both.scn"
    path.write_text(text, encoding="utf-8")
    assert main(["signal", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == "error: signal and reward: name exactly one, not both\n"


@pytest.mark.parametrize("power", [1, 5])
def test_affine_g_takes_no_power(power):
    # the power of an affine g was kept and rendered back, but ignored
    doc = json.loads((FIXTURES / "signal_chain.scn").read_text(encoding="utf-8"))
    doc["g"]["power"] = power
    for strict in (True, False):
        with pytest.raises(ScenarioError, match=r"^g\.power: only odd_power g takes a power$"):
            parse_scenario(json.dumps(doc), strict=strict)


# One field of signal_chain.scn replaced by a value of another JSON type,
# each of which raised TypeError (unhashable) out of the parser: a name that
# is not a string, and an atom entry that is not a path id.
MALFORMED = [
    (("signal",), ["L"], "signal: names unknown process ['L']"),
    (("reward",), {}, "reward: names unknown process {}"),
    (("initial_field",), [[["w"]]], "initial_field: unknown path id ['w']"),
    (("meyer", 0, 0, 0), {}, "meyer epoch 0: unknown path id {}"),
]


def _replaced(doc: dict, where: tuple, value) -> dict:
    """A copy of doc with the node at the key path `where` set to value."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return doc


@pytest.mark.parametrize("where, value, message", MALFORMED)
def test_a_malformed_name_or_atom_is_a_validation_failure(where, value, message, tmp_path, capsys):
    doc = json.loads((FIXTURES / "signal_chain.scn").read_text(encoding="utf-8"))
    path = tmp_path / "malformed.scn"
    path.write_text(json.dumps(_replaced(doc, where, value)), encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


FIXTURE_DOCS = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(FIXTURES.glob("*.scn"))
}
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _fields(value, where: tuple = ()):
    """(key path, value) of every node below the root of a JSON document."""
    if isinstance(value, (dict, list)):
        children = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in children:
            yield (*where, key), child
            yield from _fields(child, (*where, key))


@st.composite
def one_field_replaced(draw):
    """(fixture, key path, value): a node of a fixture document, or an absent
    top-level field, and a JSON value of another type to put there."""
    name = draw(st.sampled_from(sorted(FIXTURE_DOCS)))
    doc = FIXTURE_DOCS[name]
    absent = [((field,), None) for field in sorted(KNOWN_FIELDS - set(doc))]
    where, current = draw(st.sampled_from([*_fields(doc), *absent]))
    value = draw(JSON_VALUES.filter(lambda v: type(v) is not type(current)))
    return name, where, value


@settings(max_examples=300, derandomize=True, deadline=None)
@example(case=("signal_chain.scn", *MALFORMED[0][:2]))
@example(case=("signal_chain.scn", *MALFORMED[1][:2]))
@example(case=("signal_chain.scn", *MALFORMED[2][:2]))
@example(case=("signal_chain.scn", *MALFORMED[3][:2]))
@given(case=one_field_replaced())
def test_a_replaced_field_parses_or_raises_a_named_error(case):
    # whatever type a field holds, the parser gives a Scenario or one of its
    # named errors, in both strict modes
    name, where, value = case
    text = json.dumps(_replaced(FIXTURE_DOCS[name], where, value))
    for strict in (True, False):
        with warnings.catch_warnings(), contextlib.suppress(ScenarioError, LatticeError):
            warnings.simplefilter("ignore")
            parse_scenario(text, strict=strict)
