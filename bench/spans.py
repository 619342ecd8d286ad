"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps every public function of every `meyerstop.*`
module and rebinds the wrapper under each name that refers to the function
in any `meyerstop` module namespace, since `from .snell import
snell_envelope` binds the same function in `checks`, `cli` and others.
Generator functions are timed per `next()`, so iteration time lands in the
span that consumes the items.  `uninstall()` puts the originals back.

A span is (id, parent id, name, start, end, phase, value): the parent is the
innermost span open in the same thread, `phase` tags set-up or a pass, and
`value` holds a count read from the result for a few functions (see
`VALUE_HOOKS`).  Work handed to a `ThreadPoolExecutor` keeps the submitting
span as its parent, so a span's self time (its duration minus the part of
it that its children cover) stays right under `--jobs`.  Spans stay in
memory until `write()`.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

LAYERS = ("scenario", "cli", "lattice", "enumeration", "projection", "snell", "representation", "checks")

# Span value read from a function's result.
VALUE_HOOKS = {
    "enumeration.count_stopping_times": lambda r: r,
    "enumeration.maximize_over_stopping_times": lambda r: len(r[1]),
    "projection.check_projection_fatou": lambda r: r.optional_checked + r.predictable_checked,
    "snell.enumerate_divided_stops": len,
}

# Metric -> functions whose outermost spans it sums (inclusive time).
TIME_METRICS = {
    "scenario.parse_s": ("scenario.parse_scenario",),
    "cli.command_s": ("cli.run_command",),
    "cli.render_s": ("cli.render_machine", "cli.render_table"),
    "lattice.cond_exp_s": ("lattice.conditional_expectation",),
    "lattice.measurable_s": ("lattice.is_measurable",),
    "lattice.validate_s": ("lattice.validate_lattice",),
    "enumeration.count_s": ("enumeration.count_stopping_times",),
    "enumeration.maximize_s": ("enumeration.maximize_over_stopping_times",),
    "enumeration.iterate_s": ("enumeration.iter_stopping_index_tuples",),
    "projection.project_s": ("projection.project",),
    "projection.usc_equivalence_s": ("projection.check_usc_sequence_equivalence",),
    "projection.fatou_s": ("projection.check_projection_fatou",),
    "snell.envelope_s": ("snell.snell_envelope",),
    "snell.decompose_s": ("snell.mertens_decompose",),
    "snell.martingale_check_s": ("snell.is_lambda_martingale", "snell.is_lambda_supermartingale"),
    "snell.stops_s": (
        "snell.delta_stop",
        "snell.sigma_stop",
        "snell.lambda_entry_time",
        "snell.smallest_largest_optimal",
    ),
    "snell.brute_force_s": ("snell.snell_brute_force",),
    "snell.certificate_s": ("snell.check_optimality",),
    "snell.divided_stops_s": ("snell.enumerate_divided_stops",),
    "representation.forward_s": ("representation.forward_evaluate",),
    "representation.solve_s": ("representation.solve_representation",),
    "representation.signal_check_s": ("representation.universal_signal_check",),
}

# One metric per named suite property, timed at the check function.
CHECK_METRICS = {
    "checks.check_lattice_valid": "checks.lattice_valid_s",
    "checks.check_projection_normalization": "checks.projection_normalization_s",
    "checks.check_projection_tower": "checks.projection_tower_s",
    "checks.check_projection_linearity": "checks.projection_linearity_s",
    "checks.check_projection_duality": "checks.projection_duality_s",
    "checks.check_fatou": "checks.projection_fatou_s",
    "checks.check_usc_equivalence": "checks.usc_equivalence_s",
    "checks.check_snell_oracle": "checks.snell_oracle_s",
    "checks.check_envelope_dominance": "checks.snell_dominance_s",
    "checks.check_mertens": "checks.mertens_identities_s",
    "checks.check_delta": "checks.stop_delta_s",
    "checks.check_sigma": "checks.stop_sigma_s",
    "checks.check_optimality_oracle": "checks.optimality_certificates_s",
    "checks.check_sandwich": "checks.stop_sandwich_s",
    "checks.check_representation_roundtrip": "checks.representation_roundtrip_s",
    "checks.check_universal_signal": "checks.universal_signal_s",
}

CALL_METRICS = {
    "scenario.parse_calls": "scenario.parse_scenario",
    "lattice.cond_exp_calls": "lattice.conditional_expectation",
    "lattice.field_partitions_calls": "lattice.field_partitions",
    "lattice.measurable_calls": "lattice.is_measurable",
    "lattice.stopping_time_check_calls": "lattice.is_lambda_stopping_time",
    "enumeration.count_calls": "enumeration.count_stopping_times",
    "projection.project_calls": "projection.project",
    "snell.envelope_calls": "snell.snell_envelope",
    "snell.decompose_calls": "snell.mertens_decompose",
    "snell.certificate_calls": "snell.check_optimality",
    "representation.forward_calls": "representation.forward_evaluate",
    "representation.roots": "representation.g_root",
    "representation.stopping_value_calls": "representation.stopping_value",
}

VALUE_METRICS = {
    "enumeration.optimizers": "enumeration.maximize_over_stopping_times",
    "enumeration.tuples_yielded": "enumeration.iter_stopping_index_tuples",
    "projection.fatou_times_checked": "projection.check_projection_fatou",
    "snell.divided_stops": "snell.enumerate_divided_stops",
}

SRC_MODULES = ("__init__", "cli", "lattice", "enumeration", "projection", "snell", "representation", "scenario", "checks")

PASS_METRICS = (
    tuple(TIME_METRICS)
    + tuple(CHECK_METRICS.values())
    + tuple(CALL_METRICS)
    + tuple(VALUE_METRICS)
    + (
        "cli.report_self_s",
        "enumeration.stops_covered",
        "enumeration.us_per_stop",
        "enumeration.guard_headroom",
    )
    + tuple(f"{layer}.self_s" for layer in LAYERS)
)


def unit_of(metric: str) -> str:
    if metric.startswith("src_lines."):
        return "lines"
    if metric in ("trace.overhead", "enumeration.guard_headroom"):
        return "ratio"
    if metric.endswith("us_per_stop"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    return "count"


class Tracer:
    def __init__(self, package, also=()):
        """Trace `package`'s modules; also rebind their functions in `also`."""
        prefix = package.__name__ + "."
        self.modules = [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]
        self.namespaces = self.modules + [package, *also]
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer, hook = self, VALUE_HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    stack = tracer._stack()
                    sid, parent = next(tracer._ids), (stack[-1] if stack else None)
                    stack.append(sid)
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(stack, sid, parent, name, start, 0)
                        return
                    except BaseException:
                        tracer._close(stack, sid, parent, name, start, 0)
                        raise
                    tracer._close(stack, sid, parent, name, start, 1)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid, parent = next(tracer._ids), (stack[-1] if stack else None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(stack, sid, parent, name, start, None)
                raise
            end = perf_counter()
            stack.pop()
            value = hook(result) if hook is not None else None
            tracer.spans.append((sid, parent, name, start, end, tracer.phase, value))
            return result

        return traced

    def _close(self, stack, sid, parent, name, start, value) -> None:
        end = perf_counter()
        stack.pop()
        self.spans.append((sid, parent, name, start, end, self.phase, value))

    def _executor(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def adopted(*a, **k):
                    inner = tracer._stack()
                    inner.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        inner.pop()

                return super().submit(adopted, *args, **kwargs)

        return TracedExecutor

    def install(self) -> None:
        wrappers = {ThreadPoolExecutor: self._executor()}
        for mod in self.modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in self.namespaces:
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) or obj is ThreadPoolExecutor) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path: Path, spans) -> None:
        """Gzipped, one JSON array per span: id, parent, name, start, end, phase, value."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanTable:
    """Spans of one phase, with the derived per-layer figures."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                children[s[1]].append((s[3], s[4]))
        self.self_time = {
            s[0]: (s[4] - s[3]) - _covered(children.get(s[0], ()), s[3], s[4]) for s in spans
        }
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for s in spans:
            self.by_name[s[2]].append(s)

    def outermost_time(self, names) -> float:
        """Inclusive time of spans of `names` that no span of `names` encloses."""
        names = set(names)
        total = 0.0
        for name in names:
            for s in self.by_name.get(name, ()):
                parent = self.by_id.get(s[1])
                while parent is not None and parent[2] not in names:
                    parent = self.by_id.get(parent[1])
                if parent is None:
                    total += s[4] - s[3]
        return total

    def self_of(self, names) -> float:
        return sum(self.self_time[s[0]] for name in names for s in self.by_name.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def values(self, name: str) -> list:
        return [s[6] for s in self.by_name.get(name, ()) if s[6] is not None]

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_time[s[0]] for s in self.spans if s[2].startswith(prefix))

    def pass_metrics(self, guard: int) -> dict[str, float]:
        m: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            m[metric] = self.outermost_time(names)
        for name, metric in CHECK_METRICS.items():
            m[metric] = self.outermost_time((name,))
        for metric, name in CALL_METRICS.items():
            m[metric] = self.calls(name)
        for metric, name in VALUE_METRICS.items():
            m[metric] = sum(self.values(name))
        m["cli.report_self_s"] = self.self_of(("cli.run_command",))
        maximize = "enumeration.maximize_over_stopping_times"
        counts = self.by_name.get("enumeration.count_stopping_times", ())
        covered = sum(
            s[6] for s in counts if s[1] in self.by_id and self.by_id[s[1]][2] == maximize
        )
        m["enumeration.stops_covered"] = covered
        m["enumeration.us_per_stop"] = m["enumeration.maximize_s"] / covered * 1e6 if covered else 0.0
        largest = max((s[6] for s in counts), default=0)
        m["enumeration.guard_headroom"] = 1 - largest / guard
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self(layer)
        return m

    def build_seconds(self) -> float:
        """Inclusive time of the scenario layer's outermost spans."""
        return self.outermost_time([n for n in self.by_name if n.startswith("scenario.")])


def src_lines(src: Path) -> dict[str, int]:
    out = {}
    for module in SRC_MODULES:
        path = src / "meyerstop" / f"{module}.py"
        out[f"src_lines.{module}"] = len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
    out["src_lines.total"] = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((src / "meyerstop").glob("*.py"))
    )
    return out


PER_LAYER_METRICS = (
    ("scenario.build_s",)
    + PASS_METRICS
    + tuple(f"src_lines.{m}" for m in SRC_MODULES)
    + ("src_lines.total", "trace.overhead")
)
