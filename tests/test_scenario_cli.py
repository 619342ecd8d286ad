from __future__ import annotations

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from meyerstop import checks
from meyerstop.cli import main, render_machine, run_command, run_suite
from meyerstop.lattice import INT, Instant, LatticeError, LatticeProcess
from meyerstop.representation import forward_evaluate, stopping_value
from meyerstop.scenario import (
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
    for name in ("branch.scn", "deterministic.scn", "signal_chain.scn"):
        sc = load(name)
        assert parse_scenario(render_scenario(sc)) == sc


@pytest.mark.parametrize("seed", range(8))
def test_generated_round_trip_and_determinism(seed):
    params = RandomInstanceParams(seed=seed, epochs=1 + seed % 4, max_paths=2 + seed % 9)
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

    monkeypatch.setattr(checks, "_smallest_largest", failing)
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
    sc = dataclasses.replace(sc, signal=None, reward="Z")
    doc, status = run_suite(sc)
    rows = {r["property"]: r for r in doc["checks"]}
    signal, roundtrip = rows["representation/universal-signal"], rows["representation/round-trip"]
    assert status == 2 and roundtrip["status"] == "FAIL"
    assert signal["status"] == "SKIP" and signal["detail"] == roundtrip["detail"]
    assert signal["detail"].startswith("X not representable with this (g, mu)")


def test_a_guarded_delta_maximum_is_a_skip_row(monkeypatch):
    # the oracle and delta rows read one fold's value, which no guard
    # bounds: at a guard of 2, below branch.scn's 11 stopping times, they
    # PASS, and a maximum off by one still makes the delta row FAIL
    sc = load("branch.scn")
    rows = {r["property"]: r for r in run_suite(sc, guard=2)[0]["checks"]}
    for name in ("snell/oracle[Z]", "stop/delta[Z]"):
        assert rows[name] == {"property": name, "status": "PASS", "detail": ""}
    maximum = checks._maximum

    def off_by_one(*args):
        opt = maximum(*args)
        return opt._replace(value=opt.value + 1)

    monkeypatch.setattr(checks, "_maximum", off_by_one)
    rows = {r["property"]: r for r in run_suite(sc, guard=2)[0]["checks"]}
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
        dataclasses.replace(sc, reward="L")
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
