"""Tests of the benchmark's own code: python3 -m pytest -q bench/test_bench.py

The reference checks must accept the program's real outputs and reject
deliberately corrupted ones; the tracer must leave outputs byte-identical.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import meyerstop  # noqa: E402
import meyerstop.cli  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from meyerstop import Kind, RandomInstanceParams, Scenario, generate_instance, render_scenario  # noqa: E402
from meyerstop.enumeration import count_stopping_times  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402


def _run(tmp_path: Path, command: str, scenario: Scenario, *extra: str):
    scn = tmp_path / f"{command}.scn"
    scn.write_text(render_scenario(scenario), encoding="utf-8")
    out = tmp_path / f"{command}.out"
    argv = [command, "--scenario", str(scn), *extra, "--format", "machine", "--out", str(out)]
    assert meyerstop.cli.main(argv) == 0
    return reference.RefScenario(scn.read_text(encoding="utf-8")), json.loads(out.read_text(encoding="utf-8"))


def _tree(seed: int, depth: int) -> Scenario:
    rng = random.Random(seed)
    lattice, meyer = workloads.binary_tree(rng, depth)
    Z = workloads.draw_reward(rng, lattice, meyer, 6, (1, 2))
    return Scenario(lattice=lattice, meyer=meyer, processes={"Z": Z})


def _instant_text(index: int, n_instants: int) -> str:
    if index == n_instants:
        return "TERMINAL"
    return f"({index // 2},{'AT' if index % 2 == 0 else 'INT'})"


def _oracle_instance() -> Scenario:
    """A generated lattice whose reward has several optimal stopping times."""
    for seed in range(200):
        base = generate_instance(RandomInstanceParams(seed=seed, epochs=2, max_paths=6))
        Z = workloads.draw_reward(random.Random(seed), base.lattice, base.meyer, 2, (1,))
        scenario = Scenario(lattice=base.lattice, meyer=base.meyer, processes={"Z": Z})
        brute = meyerstop.snell_brute_force(base.lattice, base.meyer, Z)
        if len(brute.optimizers) >= 2:
            return scenario
    raise AssertionError("no instance with several optimizers")


def test_reference_count_and_optimum_match_the_engine():
    for seed in range(40):
        sc = generate_instance(RandomInstanceParams(seed=seed, epochs=3, max_paths=6))
        ref = reference.RefScenario(render_scenario(sc))
        assert reference.count_stopping_times(ref) == count_stopping_times(sc.lattice, sc.meyer, Kind.LAMBDA)
        value, ways = reference.optimum(ref, ref.processes["Z"])
        brute = meyerstop.snell_brute_force(sc.lattice, sc.meyer, sc.processes["Z"])
        assert (value, ways) == (brute.value, len(brute.optimizers))
        assert reference.envelope(ref, ref.processes["Z"])[1] == value


def test_oracle_check_rejects_corruptions(tmp_path):
    sc, doc = _run(tmp_path, "oracle", _oracle_instance())
    assert reference.check_oracle(sc, doc) == []

    off_by_one = dict(doc, stopping_time_count=doc["stopping_time_count"] + 1)
    assert reference.check_oracle(sc, off_by_one)

    dropped = dict(doc, optimizers=doc["optimizers"][1:])
    assert reference.check_oracle(sc, dropped)

    n = sc.n_instants
    for k, time_doc in enumerate(doc["optimizers"]):
        for pid in sc.ids:
            t = reference.parse_instant(time_doc[pid], n)
            if t == n:
                continue
            moved = {**time_doc, pid: _instant_text(t + 1, n)}
            shifted = dict(doc, optimizers=[moved if j == k else o for j, o in enumerate(doc["optimizers"])])
            assert reference.check_oracle(sc, shifted), (k, pid)

    wrong_value = dict(doc, value=str(reference.Fraction(doc["value"]) + 1))
    assert reference.check_oracle(sc, wrong_value)


def test_unreadable_report_is_a_problem_not_a_crash(tmp_path):
    import run

    scn = tmp_path / "s.scn"
    scn.write_text(render_scenario(_tree(1, 2)), encoding="utf-8")
    op = workloads.Op("stop", scn, tmp_path / "stop.out")
    for raw in (b"", b"{}", b'{"value": "1", "delta": {"time": {}}}'):
        problems = run.check_outputs([op], [raw])
        assert len(problems) == 1 and "unreadable report" in problems[0], raw


def test_decompose_check_rejects_a_changed_envelope_cell(tmp_path):
    sc, doc = _run(tmp_path, "decompose", _tree(3, 4))
    assert reference.check_decompose(sc, doc) == []
    for field in ("envelope", "martingale", "predictable_compensator", "jump_compensator"):
        bad = json.loads(json.dumps(doc))
        pid = sc.ids[5]
        bad[field][pid][3] = str(reference.Fraction(bad[field][pid][3]) + reference.Fraction(1, 3))
        assert reference.check_decompose(sc, bad), field


def test_stop_check_rejects_a_shifted_time(tmp_path):
    sc, doc = _run(tmp_path, "stop", _tree(4, 4))
    assert reference.check_stop(sc, doc) == []
    for part, key in (("delta", "time"), ("sigma", "reading")):
        bad = json.loads(json.dumps(doc))
        bad[part][key][sc.ids[0]] = "TERMINAL" if doc[part][key][sc.ids[0]] != "TERMINAL" else "(0,AT)"
        assert reference.check_stop(sc, bad), part


def test_suite_check_rejects_a_flipped_row(tmp_path):
    base = generate_instance(RandomInstanceParams(seed=5, epochs=2, max_paths=4))
    sc, doc = _run(tmp_path, "suite", base)
    assert reference.check_suite(sc, doc) == []
    for k in range(len(doc["checks"])):
        bad = json.loads(json.dumps(doc))
        bad["checks"][k]["status"] = "FAIL"
        assert reference.check_suite(sc, bad), k
    renamed = json.loads(json.dumps(doc))
    renamed["checks"][0]["property"] = "lattice/other"
    assert reference.check_suite(sc, renamed)
    dropped = dict(doc, checks=doc["checks"][1:])
    assert reference.check_suite(sc, dropped)


def test_traced_outputs_are_byte_identical(tmp_path):
    base = generate_instance(RandomInstanceParams(seed=5, epochs=2, max_paths=4))
    scn = tmp_path / "s.scn"
    scn.write_text(render_scenario(base), encoding="utf-8")
    originals = dict(vars(meyerstop.checks))
    tracer = Tracer(meyerstop)
    for command in ("suite", "oracle", "decompose", "stop", "signal"):
        plain, wrapped = tmp_path / f"{command}.plain", tmp_path / f"{command}.traced"
        common = [command, "--scenario", str(scn), "--format", "machine", "--jobs", "2", "--out"]
        assert meyerstop.cli.main(common + [str(plain)]) == 0
        tracer.install()
        try:
            assert meyerstop.cli.main(common + [str(wrapped)]) == 0
        finally:
            tracer.uninstall()
        assert plain.read_bytes() == wrapped.read_bytes(), command
    assert dict(vars(meyerstop.checks)) == originals

    table = SpanTable(tracer.spans)
    by_id = table.by_id
    iterations = table.by_name["enumeration.iter_stopping_index_tuples"]
    assert sum(table.values("enumeration.iter_stopping_index_tuples")) > 0
    # Iteration lands under the consumer, also on --jobs worker threads.
    parents = {by_id[s[1]][2] for s in iterations if s[1] is not None}
    assert "snell.enumerate_divided_stops" in parents
    assert all(s[1] is not None for s in table.by_name["checks.check_lattice_valid"])
    assert all(t >= -1e-9 for t in table.self_time.values())
