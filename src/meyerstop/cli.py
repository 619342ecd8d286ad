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
import functools
import json
import os
import sys
from collections import Counter
from fractions import Fraction

from . import checks
from .enumeration import DEFAULT_GUARD, EnumerationGuardError
from .lattice import (
    AT,
    Instant,
    InvariantError,
    Kind,
    LatticeError,
    RandomInstant,
    _divided_readings,
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
    enumerate_divided_stops,
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
        ss = sigma_stop(lattice, zero, mertens_decompose(lattice, meyer, zbar))
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
            doc = {
                "command": "represent",
                "direction": "forward",
                "reward": _proc_doc(lattice, forward_evaluate(problem)),
            }
        return doc, OK

    if command == "signal":
        problem = scenario.build_problem()
        if problem is None:
            raise ScenarioError("scenario carries no representation bundle (g, mu, signal/reward)")
        grid = ell_grid if ell_grid is not None else scenario.ell_grid
        if not grid:
            raise ScenarioError("no ell grid supplied (--ell-grid or scenario ell_grid)")
        report = universal_signal_check(problem, grid)
        _require_listing(problem, report, enumerate_divided_stops(lattice, meyer, guard=guard))
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
        return run_suite(scenario)

    raise ScenarioError(f"unknown command {command!r}")


def _require_listing(problem, report, stops) -> None:
    """`signal`'s check of its folds against a listing, as `snell` checks
    its envelope against the oracle: each listed divided stop is read once
    as its integer line (sum I, sum K) of the folds' `problem.lines`, and
    at each row's level the best line and how many stops attain it must be
    the row's optimum and optimizer count (InvariantError otherwise)."""
    I, K, D = problem.lines
    lines: Counter[tuple[int, int]] = Counter()
    for q in stops:
        cells = list(enumerate(_divided_readings(problem.lattice, q)))
        lines[sum(I[i][p] for p, i in cells), sum(K[i][p] for p, i in cells)] += 1
    for row in report.rows:
        num, den = Fraction(row.ell**problem.g.power).as_integer_ratio()
        best = max(den * a + num * b for a, b in lines)
        count = sum(m for (a, b), m in lines.items() if den * a + num * b == best)
        listed = Fraction(best, den * D), count
        if listed != (row.brute_force, row.optimizer_count):
            raise InvariantError(
                f"level {row.ell}: the fold reads {row.brute_force} with {row.optimizer_count}"
                f" optimizers, the listing {listed[0]} with {count}"
            )


def _suite_checks(scenario: Scenario):
    """The canonical (name, thunk) list for the regression battery.  A
    process row calls its check on (lattice, meyer, process, *extra).  The
    rows about a reward's envelope run only on a valid reward; the suite
    builds that reward's `snell_envelope` and `mertens_decompose` once, here,
    and those rows read them."""
    lattice, meyer = scenario.lattice, scenario.meyer
    items = [
        ("lattice/valid", lambda: checks.check_lattice_valid(lattice, meyer)),
        ("projection/normalization", lambda: checks.check_projection_normalization(lattice, meyer)),
    ]
    zero = [RandomInstant.constant(lattice, Instant(0, AT))]
    for name in sorted(scenario.processes):
        proc = scenario.processes[name]
        rows = [
            ("projection/tower", checks.check_projection_tower, ()),
            ("projection/linearity", checks.check_projection_linearity, ()),
            ("projection/duality", checks.check_projection_duality, ()),
            ("projection/fatou", checks.check_fatou, ()),
        ]
        if reward_fault(lattice, meyer, proc) is None:
            zbar = snell_envelope(lattice, meyer, proc)
            decomp = mertens_decompose(lattice, meyer, zbar)
            rows += [
                ("usc/equivalence", checks.check_usc_equivalence, ()),
                ("snell/oracle", checks.check_snell_oracle, (zbar,)),
                ("snell/dominance", checks.check_envelope_dominance, (zbar,)),
                ("mertens/identities", checks.check_mertens, (zbar, decomp)),
                ("stop/delta", checks.check_delta, (zbar, decomp, zero)),
                ("stop/sigma", checks.check_sigma, (zbar, decomp, zero)),
                ("optimality/certificates", checks.check_optimality_oracle, (zbar,)),
                ("stop/sandwich", checks.check_sandwich, (zbar, decomp)),
            ]
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
                 lambda: checks.check_universal_signal(problem, scenario.ell_grid))
            )
    return items


def run_suite(scenario: Scenario) -> tuple[dict, int]:
    """Run every applicable named property in canonical order.  A row reports
    PASS as None, SKIP as a `SKIP:` message (a failed precondition) and FAIL
    as any other message; an error that a row raises ends the suite.  No row
    lists stopping times, so no guard bounds the suite."""
    items = _suite_checks(scenario)

    def run_one(item):
        name, thunk = item
        message = thunk()
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first `main` call and kept:
    argparse makes a formatter per argument, so building one costs more
    than most commands' parse.  Not built at import."""
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.guard < 0:
            raise ScenarioError(f"--guard: expected a count of at least 0, got {args.guard}")
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
        text = render_machine(doc) if args.format == "machine" else render_table(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (RepresentationError, EnumerationGuardError, InvariantError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return PROPERTY_FAILURE
    except (ScenarioError, LatticeError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_FAILURE
    return status


if __name__ == "__main__":
    sys.exit(main())
