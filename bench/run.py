"""meyerstop benchmark: timed and traced passes of CLI invocations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up builds the workload's scenario files
from the seed under bench/work/<workload>/.  A pass calls
`meyerstop.cli.main(argv)` in-process once per invocation of the workload;
passes repeat for about S seconds.  Every output is then checked against
`reference.py`, which shares no code with meyerstop.

--trace 0 prints the end-to-end metrics: wall_s (median pass), setup_s
(median of repeated set-ups: a fresh-interpreter `import meyerstop` plus
the build) and peak_rss_mb.  --trace 1 spends half the time on untraced
passes and half on traced ones, prints the per-layer metrics and writes
the spans to bench/traces/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
from spans import PASS_METRICS, PER_LAYER_METRICS, SpanTable, Tracer, src_lines, unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import meyerstop\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """`import meyerstop` timed inside a fresh isolated interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes over a list of ops and keeps the first pass's outputs."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.outputs: list[bytes] | None = None
        self.problems: list[str] = []

    def call(self, argv) -> bool:
        self.attempted += 1
        try:
            status = self.cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            status = None
        if status != 0:
            self.failed += 1
            self.problems.append(f"{' '.join(argv)} exited with {status}")
            return False
        return True

    def passes(self, seconds: float, min_passes: int, on_pass=None) -> list[float]:
        walls: list[float] = []
        begin = perf_counter()
        while True:
            if on_pass is not None:
                on_pass(len(walls))
            t0 = perf_counter()
            for op in self.ops:
                self.call(op.argv())
            walls.append(perf_counter() - t0)
            self._collect()
            elapsed = perf_counter() - begin
            if len(walls) >= min_passes and elapsed + statistics.median(walls) > seconds:
                return walls

    def _collect(self) -> None:
        got = [op.out.read_bytes() if op.out.exists() else b"" for op in self.ops]
        if self.outputs is None:
            self.outputs = got
            return
        for op, first, now in zip(self.ops, self.outputs, got):
            if first != now:
                self.problems.append(f"{op.out.name} differs between passes")


def check_outputs(ops, outputs) -> list[str]:
    """Independent checks of each op's first-pass output."""
    problems = []
    scenarios = {}
    for op, raw in zip(ops, outputs):
        if op.scenario not in scenarios:
            scenarios[op.scenario] = reference.RefScenario(op.scenario.read_text(encoding="utf-8"))
        try:
            found = reference.CHECKS[op.command](scenarios[op.scenario], json.loads(raw))
        except (KeyError, TypeError, ValueError) as exc:
            found = [f"unreadable report ({type(exc).__name__}: {exc})"]
        problems += [f"{op.out.name}: {p}" for p in found]
    return problems


def jobs1_problems(runner, ops) -> list[str]:
    """Re-run suite ops at --jobs 1, outside the timed passes; outputs must match."""
    problems = []
    for op, first in zip(ops, runner.outputs):
        if op.command != "suite":
            continue
        out = op.out.with_suffix(".jobs1.out")
        argv = op.argv(out)
        argv[argv.index("--jobs") + 1] = "1"
        if runner.call(argv) and out.read_bytes() != first:
            problems.append(f"{op.out.name} differs from the --jobs 1 run")
    return problems


def timed(args, workload, workdir) -> dict:
    import meyerstop.cli

    samples = []
    for _ in range(workload.setup_reps):
        imp = import_seconds()
        t0 = perf_counter()
        ops = workload.build(args.seed, workdir)
        samples.append(imp + perf_counter() - t0)

    runner = Runner(meyerstop.cli, ops)
    walls = runner.passes(args.seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = runner.problems + jobs1_problems(runner, ops) + check_outputs(ops, runner.outputs)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    return result(runner, problems, metrics)


def traced(args, workload, workdir) -> dict:
    import meyerstop
    import meyerstop.cli
    import workloads

    tracer = Tracer(meyerstop, also=(workloads,))
    tracer.install()
    try:
        ops = workload.build(args.seed, workdir)
    finally:
        tracer.uninstall()
    build_s = SpanTable(tracer.spans).build_seconds()
    kept, per_pass = tracer.spans, []
    guard = meyerstop.DEFAULT_GUARD

    def fold() -> None:
        """Turn the last pass's spans into metrics; keep only the first pass's."""
        per_pass.append(SpanTable(tracer.spans).pass_metrics(guard))
        if len(per_pass) == 1:
            kept.extend(tracer.spans)
        tracer.spans = []

    def next_pass(k: int) -> None:
        if k:
            fold()
        tracer.phase = k

    runner = Runner(meyerstop.cli, ops)
    plain = runner.passes(args.seconds / 2, 1)
    untraced_outputs, runner.outputs = runner.outputs, None
    tracer.spans = []
    tracer.install()
    try:
        walls = runner.passes(args.seconds / 2, 1, on_pass=next_pass)
    finally:
        tracer.uninstall()
    fold()

    problems = runner.problems + check_outputs(ops, untraced_outputs)
    for op, a, b in zip(ops, untraced_outputs, runner.outputs):
        if a != b:
            problems.append(f"{op.out.name}: traced output differs from the untraced one")

    values = {m: statistics.median(p[m] for p in per_pass) for m in PASS_METRICS}
    values["scenario.build_s"] = build_s
    values.update(src_lines(SRC))
    values["trace.overhead"] = statistics.median(walls) / statistics.median(plain)

    trace_dir = BENCH / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"{workload.name}-seed{args.seed}.jsonl.gz"
    tracer.write(trace_file, kept)
    print(f"spans written to {trace_file.relative_to(ROOT)}", file=sys.stderr)
    metrics = {m: (values[m], unit_of(m)) for m in PER_LAYER_METRICS}
    return result(runner, problems, metrics)


def result(runner, problems, metrics) -> dict:
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "meyerstop" / "__init__.py").is_file():
        print(f"error: no meyerstop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = BENCH / "work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    run = traced if args.trace else timed
    doc = run(args, workload, workdir)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
