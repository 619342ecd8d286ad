"""Command-line workflows over scenario files.

Subcommands: validate | project | snell | decompose | stop | represent |
signal | oracle | suite.  A scenario comes from --scenario or, absent that,
is generated deterministically from --seed (or MEYERSTOP_SEED).  Reports
render as aligned text (table) or canonical JSON (machine); machine output
is byte-stable across runs.  Every command runs in one process.

Exit status: 0 success, 1 validation failure, 2 property failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks
from .enumeration import DEFAULT_GUARD, EnumerationGuardError
from .lattice import (
    AT,
    Instant,
    Kind,
    LatticeError,
    RandomInstant,
    from_divided_quadruple,
    reward_fault,
    validate_lattice,
)
from .projection import project
from .representation import (
    RepresentationError,
    forward_evaluate,
    solve_representation,
    universal_signal_check,
)
from .scenario import (
    RandomInstanceParams,
    Scenario,
    ScenarioError,
    _rational,
    generate_instance,
    parse_scenario,
)
from .snell import (
    delta_stop,
    expected_value,
    mertens_decompose,
    sigma_stop,
    snell_brute_force,
    snell_envelope,
)

OK = 0
VALIDATION_FAILURE = 1
PROPERTY_FAILURE = 2

COMMANDS = (
    "validate",
    "project",
    "snell",
    "decompose",
    "stop",
    "represent",
    "signal",
    "oracle",
    "suite",
)


def _proc_doc(lattice, process) -> dict:
    return {
        pid: [str(v) for v in row]
        for pid, row in zip(lattice.path_ids, process.rows)
    }


def _time_doc(lattice, T: RandomInstant) -> dict:
    return {pid: repr(u) for pid, u in zip(lattice.path_ids, T.assignment)}


def _pick_process(scenario: Scenario, name: str | None):
    if name is None:
        if scenario.reward is not None:
            name = scenario.reward
        elif "Z" in scenario.processes:
            name = "Z"
        elif scenario.processes:
            name = sorted(scenario.processes)[0]
        else:
            raise ScenarioError("scenario has no processes")
    if name not in scenario.processes:
        raise ScenarioError(f"unknown process {name!r}")
    return name, scenario.processes[name]


def run_command(
    scenario: Scenario,
    command: str,
    process: str | None = None,
    ell_grid=None,
    guard: int = DEFAULT_GUARD,
) -> tuple[dict, int]:
    """Dispatch one subcommand; returns (report document, exit status)."""
    lattice, meyer = scenario.lattice, scenario.meyer
    if command == "validate":
        report = validate_lattice(lattice, meyer)
        doc = {
            "command": "validate",
            "ok": report.ok,
            "problems": list(report.problems),
        }
        return doc, OK if report.ok else VALIDATION_FAILURE

    if command == "project":
        name, proc = _pick_process(scenario, process)
        doc = {
            "command": "project",
            "process": name,
            "projections": {
                kind.value: _proc_doc(lattice, project(lattice, meyer, proc, kind))
                for kind in Kind
            },
        }
        return doc, OK

    if command == "snell":
        name, proc = _pick_process(scenario, process)
        zbar = snell_envelope(lattice, meyer, proc)
        brute = snell_brute_force(lattice, meyer, proc)
        root = expected_value(lattice, zbar.columns[0])
        doc = {
            "command": "snell",
            "process": name,
            "envelope": _proc_doc(lattice, zbar),
            "value": str(root),
            "brute_force_value": str(brute.value),
            "optimizer_count": brute.optimizer_count,
            "matches_oracle": root == brute.value,
        }
        return doc, OK if root == brute.value else PROPERTY_FAILURE

    if command == "decompose":
        name, proc = _pick_process(scenario, process)
        zbar = snell_envelope(lattice, meyer, proc)
        d = mertens_decompose(lattice, meyer, zbar)
        doc = {
            "command": "decompose",
            "process": name,
            "envelope": _proc_doc(lattice, zbar),
            "martingale": _proc_doc(lattice, d.m),
            "martingale_terminal": [str(v) for v in d.m.columns[-1]],
            "predictable_compensator": _proc_doc(lattice, d.a),
            "predictable_terminal_jump": [str(v) for v in d.a_terminal_jump],
            "jump_compensator": _proc_doc(lattice, d.b),
        }
        return doc, OK

    if command == "stop":
        name, proc = _pick_process(scenario, process)
        zbar = snell_envelope(lattice, meyer, proc)
        zero = RandomInstant.constant(lattice, Instant(0, AT))
        ds = delta_stop(lattice, meyer, proc, zero, zbar)
        ss = sigma_stop(lattice, meyer, proc, zero, zbar)
        sigma_form = from_divided_quadruple(lattice, ss.quadruple)
        value_at_root = expected_value(lattice, zbar.columns[0])
        delta_value = expected_value(lattice, ds.T.value_of(proc))
        sigma_value = expected_value(lattice, sigma_form.value_of(proc))
        ok = value_at_root == delta_value == sigma_value
        ids = lattice.path_ids
        doc = {
            "command": "stop",
            "process": name,
            "value": str(value_at_root),
            "delta": {
                "time": _time_doc(lattice, ds.T),
                "value": str(delta_value),
            },
            "sigma": {
                "time": _time_doc(lattice, ss.T),
                "reading": _time_doc(lattice, sigma_form),
                "value": str(sigma_value),
                "k_minus": sorted(ids[p] for p in ss.k_minus),
                "k_on": sorted(ids[p] for p in ss.k_on),
                "k_plus": sorted(ids[p] for p in ss.k_plus),
            },
            "relaxation_exact": ok,
        }
        return doc, OK if ok else PROPERTY_FAILURE

    if command == "represent":
        problem = scenario.build_problem()
        if problem is None:
            raise ScenarioError("scenario carries no representation bundle (g, mu, signal/reward)")
        if problem.X is not None:
            L = solve_representation(problem)
            doc = {
                "command": "represent",
                "direction": "solve",
                "signal": _proc_doc(lattice, L),
            }
        else:
            X = forward_evaluate(problem)
            doc = {
                "command": "represent",
                "direction": "forward",
                "reward": _proc_doc(lattice, X),
            }
        return doc, OK

    if command == "signal":
        problem = scenario.build_problem()
        if problem is None:
            raise ScenarioError("scenario carries no representation bundle (g, mu, signal/reward)")
        grid = ell_grid if ell_grid is not None else scenario.ell_grid
        if not grid:
            raise ScenarioError("no ell grid supplied (--ell-grid or scenario ell_grid)")
        report = universal_signal_check(problem, grid, guard)
        doc = {
            "command": "signal",
            "right_usc_holds": report.right_usc_holds,
            "rows": [
                {
                    "ell": str(r.ell),
                    "variant_1": str(r.value_variant_1),
                    "variant_2": str(r.value_variant_2),
                    "brute_force": str(r.brute_force),
                    "optimizers": r.optimizer_count,
                    "ok": r.ok,
                }
                for r in report.rows
            ],
            "ok": report.ok,
        }
        return doc, OK if report.ok else PROPERTY_FAILURE

    if command == "oracle":
        name, proc = _pick_process(scenario, process)
        brute = snell_brute_force(lattice, meyer, proc, guard)
        doc = {
            "command": "oracle",
            "process": name,
            "value": str(brute.value),
            "stopping_time_count": brute.stopping_time_count,
            "optimizers": [_time_doc(lattice, T) for T in brute.optimizers],
        }
        return doc, OK

    if command == "suite":
        return run_suite(scenario, guard=guard)

    raise ScenarioError(f"unknown command {command!r}")


def _suite_checks(scenario: Scenario, guard: int):
    """The canonical (name, thunk) list for the regression battery.  A
    process row calls its check on (lattice, meyer, process, *extra); the
    rows that need an envelope run only on a valid reward."""
    lattice, meyer = scenario.lattice, scenario.meyer
    items = [
        ("lattice/valid", lambda: checks.check_lattice_valid(lattice, meyer)),
        ("projection/normalization", lambda: checks.check_projection_normalization(lattice, meyer)),
    ]
    zero = [RandomInstant.constant(lattice, Instant(0, AT))]
    projection_rows = [
        ("projection/tower", checks.check_projection_tower, ()),
        ("projection/linearity", checks.check_projection_linearity, ()),
        ("projection/duality", checks.check_projection_duality, ()),
        ("projection/fatou", checks.check_fatou, ()),
    ]
    reward_rows = [
        ("usc/equivalence", checks.check_usc_equivalence, ()),
        ("snell/oracle", checks.check_snell_oracle, ()),
        ("snell/dominance", checks.check_envelope_dominance, ()),
        ("mertens/identities", checks.check_mertens, ()),
        ("stop/delta", checks.check_delta, (zero,)),
        ("stop/sigma", checks.check_sigma, (zero,)),
        ("optimality/certificates", checks.check_optimality_oracle, ()),
        ("stop/sandwich", checks.check_sandwich, ()),
    ]
    for name in sorted(scenario.processes):
        proc = scenario.processes[name]
        rows = projection_rows + (reward_rows if reward_fault(lattice, meyer, proc) is None else [])
        items += [
            (f"{row}[{name}]", lambda c=check, p=proc, x=extra: c(lattice, meyer, p, *x))
            for row, check, extra in rows
        ]
    problem = scenario.build_problem()
    if problem is not None:
        items.append(
            ("representation/round-trip", lambda: checks.check_representation_roundtrip(problem))
        )
        if scenario.ell_grid:
            items.append(
                ("representation/universal-signal",
                 lambda: checks.check_universal_signal(problem, scenario.ell_grid, guard))
            )
    return items


def run_suite(scenario: Scenario, guard: int = DEFAULT_GUARD) -> tuple[dict, int]:
    """Run every applicable named property in canonical order.  Past the guard
    the one row that lists, `universal-signal`, reads SKIP; any other error
    that a row raises ends the suite."""
    items = _suite_checks(scenario, guard)

    def run_one(item):
        name, thunk = item
        try:
            message = thunk()
        except EnumerationGuardError as exc:
            return {"property": name, "status": "SKIP", "detail": str(exc)}
        if message is None:
            return {"property": name, "status": "PASS", "detail": ""}
        if message.startswith("SKIP:"):
            return {"property": name, "status": "SKIP", "detail": message[5:].strip()}
        return {"property": name, "status": "FAIL", "detail": message}

    rows = [run_one(item) for item in items]
    failed = [r for r in rows if r["status"] == "FAIL"]
    doc = {
        "command": "suite",
        "checks": rows,
        "passed": sum(1 for r in rows if r["status"] == "PASS"),
        "failed": len(failed),
        "skipped": sum(1 for r in rows if r["status"] == "SKIP"),
        "ok": not failed,
    }
    return doc, OK if not failed else PROPERTY_FAILURE


def render_table(doc: dict) -> str:
    """Deterministic plain-text rendering of a report document."""
    lines: list[str] = []

    def walk(value, indent: str, label: str | None) -> None:
        prefix = f"{indent}{label}: " if label is not None else indent
        if isinstance(value, dict):
            if label is not None:
                lines.append(f"{indent}{label}:")
            for key in value:
                walk(value[key], indent + ("  " if label is not None else ""), key)
        elif isinstance(value, list):
            if all(not isinstance(v, (dict, list)) for v in value):
                lines.append(prefix + "  ".join(str(v) for v in value))
            else:
                lines.append(f"{indent}{label}:")
                for i, v in enumerate(value):
                    walk(v, indent + "  ", f"[{i}]")
        else:
            lines.append(prefix + str(value))

    if doc.get("command") == "suite":
        for row in doc["checks"]:
            detail = f"  {row['detail']}" if row["detail"] else ""
            lines.append(f"{row['status']:4s} {row['property']}{detail}")
        lines.append(
            f"passed {doc['passed']}  failed {doc['failed']}  skipped {doc['skipped']}"
        )
    else:
        walk(doc, "", None)
    return "\n".join(lines) + "\n"


def render_machine(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="meyerstop",
        description="Exact optimal-stopping engine over finite information lattices",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", help="scenario JSON file (otherwise generated from the seed)")
    parser.add_argument("--process", help="process name for process-directed commands")
    parser.add_argument("--ell-grid", help="comma-separated rational levels for `signal`")
    parser.add_argument("--seed", type=int, default=None, help="seed for generated scenarios")
    parser.add_argument("--format", choices=("table", "machine"), default="table")
    parser.add_argument("--strict", action="store_true", help="reject unknown scenario fields")
    parser.add_argument("--jobs", type=int, help="kept for compatibility; has no effect")
    guard_help = "bound on the stopping times a command lists"
    parser.add_argument("--guard", type=int, default=DEFAULT_GUARD, help=guard_help)
    parser.add_argument("--out", help="write the report here instead of stdout")
    args = parser.parse_args(argv)

    try:
        if args.scenario is not None:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                text = fh.read()
            scenario = parse_scenario(text, strict=args.strict)
        else:
            seed = args.seed
            if seed is None:
                seed = int(os.environ.get("MEYERSTOP_SEED", "0"))
            scenario = generate_instance(RandomInstanceParams(seed=seed))
        levels = enumerate(args.ell_grid.split(",")) if args.ell_grid else ()
        ell_grid = tuple(_rational(v, f"--ell-grid[{k}]") for k, v in levels) or None
        doc, status = run_command(
            scenario, args.command, process=args.process, ell_grid=ell_grid, guard=args.guard
        )
    except (RepresentationError, EnumerationGuardError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return PROPERTY_FAILURE
    except (ScenarioError, LatticeError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_FAILURE

    text = render_machine(doc) if args.format == "machine" else render_table(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
