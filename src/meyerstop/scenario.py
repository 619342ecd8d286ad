"""Scenario files and seeded random instances.

A scenario is a UTF-8 JSON document: paths with exact rational
probabilities, per-epoch filtration and Meyer partitions, named processes
(values in instant order), and optionally a (g, mu, signal/reward, ell
grid) bundle for representation problems.  Rationals travel as strings so
no float ever touches the data; rendering is canonical so that
parse(render(s)) == s byte-for-byte round trips hold.
"""

from __future__ import annotations

import json
import random
import warnings
from fractions import Fraction
from functools import cached_property
from typing import Any, Sequence

from .lattice import (
    FilteredLattice,
    Kind,
    LatticeProcess,
    MeyerStructure,
    PathRecord,
    Partition,
    _Record,
    field_partitions,
    make_partition,
    validate_lattice,
)
from .representation import GFamily, RandomMeasure, RepresentationProblem, validate_g

KNOWN_FIELDS = {
    "epochs",
    "paths",
    "initial_field",
    "filtration",
    "meyer",
    "processes",
    "g",
    "mu",
    "signal",
    "reward",
    "ell_grid",
    "commands",
}
KNOWN_G_FIELDS = {"kind", "power", "a", "b"}


class ScenarioError(ValueError):
    """Parse or consistency failure, with field-precise messages."""


def _rational(value: Any, where: str, memo: dict[str, Fraction] | None = None) -> Fraction:
    """`value`, a string or an int, as an exact `Fraction`.  A string that
    parses is kept in `memo`, and a string found there is read from it, so
    one `parse_scenario` builds one `Fraction` per distinct string; a string
    that fails is never kept, so each of its cells raises with its own
    `where`, the first one first."""
    if memo is not None and type(value) is str:
        if value not in memo:
            memo[value] = _rational(value, where)
        return memo[value]
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ScenarioError(f"{where}: expected an exact rational string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{where}: malformed rational {value!r} ({exc})") from None


class Scenario(_Record):
    """Parsed scenario: lattice, information structure, and named data; a
    `_Record`, as it validates and caches `g`.  Its dicts make it unhashable."""

    def __init__(
        self,
        lattice: FilteredLattice,
        meyer: MeyerStructure,
        processes: dict[str, LatticeProcess],
        g_spec: dict | None = None,
        mu: RandomMeasure | None = None,
        signal: str | None = None,
        reward: str | None = None,
        ell_grid: tuple[Fraction, ...] | None = None,
        commands: dict | None = None,
    ) -> None:
        self._store(lattice, meyer, processes, g_spec, mu, signal, reward, ell_grid, commands)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.signal is not None and self.reward is not None:
            raise ScenarioError("signal and reward: name exactly one, not both")

    @cached_property
    def g(self) -> GFamily | None:
        """The family that `g_spec` describes, parsed on first read;
        `parse_scenario` hands over the one it built, so it parses g once."""
        if self.g_spec is None:
            return None
        return _g_from_spec(self.g_spec, self.lattice, {})

    @cached_property
    def _canonical_g(self) -> dict:
        """`g_spec` as `render_scenario` writes it; `parse_scenario` hands over its own."""
        return _canonical_g_spec(self.g_spec, self.lattice, True, {})[0]

    def build_problem(self) -> RepresentationProblem | None:
        g = self.g
        if g is None or self.mu is None:
            return None
        names = (self.reward, self.signal)
        X, L = (None if name is None else self.processes[name] for name in names)
        if X is None and L is None:
            validate_g(self.lattice, self.meyer, g)  # a problem checks its g; none is built
            return None
        return RepresentationProblem(self.lattice, self.meyer, g, self.mu, X, L)


def _parse_partition(raw: Any, ids: Sequence[str], where: str) -> Partition:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list of atoms")
    index = {pid: i for i, pid in enumerate(ids)}
    seen: dict[str, int] = {}
    blocks: list[list[int]] = []
    for a, atom in enumerate(raw):
        if not isinstance(atom, list) or not atom:
            raise ScenarioError(f"{where}: atom {a} must be a nonempty list of path ids")
        block = []
        for pid in atom:
            if not isinstance(pid, str) or pid not in index:
                raise ScenarioError(f"{where}: unknown path id {pid!r}")
            if pid in seen:
                raise ScenarioError(f"{where}: paths [{pid!r}] appear in atoms {seen[pid]} and {a}")
            seen[pid] = a
            block.append(index[pid])
        blocks.append(block)
    missing = [pid for pid in ids if pid not in seen]
    if missing:
        raise ScenarioError(f"{where}: paths {missing} not covered")
    return make_partition(blocks)


def _render_partition(part: Partition, ids: Sequence[str]) -> list[list[str]]:
    return [[ids[i] for i in sorted(block)] for block in part]


def _parse_value_rows(
    raw: Any, ids: Sequence[str], n_values: int, where: str, memo: dict[str, Fraction]
) -> tuple[tuple[Fraction, ...], ...]:
    """Per-path lists keyed by id, or one broadcast list for every path; each
    cell is read through the parse's `_rational` memo."""
    if isinstance(raw, list):
        row = tuple(_rational(v, f"{where}[{j}]", memo) for j, v in enumerate(raw))
        if len(row) != n_values:
            raise ScenarioError(f"{where}: expected {n_values} values, got {len(row)}")
        return tuple(row for _ in ids)
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected a list or an id-keyed object")
    unknown = set(raw) - set(ids)
    if unknown:
        raise ScenarioError(f"{where}: unknown path ids {sorted(unknown)}")
    rows = []
    for pid in ids:
        if pid not in raw:
            raise ScenarioError(f"{where}: missing values for path {pid!r}")
        vals = raw[pid]
        if not isinstance(vals, list) or len(vals) != n_values:
            raise ScenarioError(f"{where}.{pid}: expected {n_values} values in instant order")
        rows.append(tuple(_rational(v, f"{where}.{pid}[{j}]", memo) for j, v in enumerate(vals)))
    return tuple(rows)


def _g_from_spec(spec: dict, lattice: FilteredLattice, memo: dict[str, Fraction]) -> GFamily:
    kind = spec.get("kind")
    n = lattice.n_instants
    ids = lattice.path_ids
    a = _parse_value_rows(spec.get("a", [0] * n), ids, n, "g.a", memo)
    b = _parse_value_rows(spec.get("b", [1] * n), ids, n, "g.b", memo)
    if kind == "affine":
        if "power" in spec:
            raise ScenarioError("g.power: only odd_power g takes a power")
        return GFamily.affine(a, b)
    if kind == "odd_power":
        power = spec.get("power", 3)
        if isinstance(power, bool) or not isinstance(power, int) or power < 1 or power % 2 == 0:
            raise ScenarioError(f"g.power: expected an odd positive integer, got {power!r}")
        return GFamily.affine(a, b, power)
    raise ScenarioError(f"g.kind: expected 'affine' or 'odd_power', got {kind!r}")


def parse_scenario(text: str, strict: bool = True) -> Scenario:
    """Total parse with field-precise diagnostics.

    Unknown top-level fields, and unknown keys inside `g`, are rejected in
    strict mode and ignored with a warning entry otherwise (the warning is
    part of the raised error only in strict mode; lenient callers can
    inspect `KNOWN_FIELDS` and `KNOWN_G_FIELDS`).  The rationals of one
    parse share one `_rational` memo, which lives for this call only.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = sorted(set(doc) - KNOWN_FIELDS)
    if unknown:
        if strict:
            raise ScenarioError(f"unknown fields {unknown} (strict mode)")
        warnings.warn(f"ignoring unknown scenario fields {unknown}", stacklevel=2)

    memo: dict[str, Fraction] = {}
    K = doc.get("epochs")
    if isinstance(K, bool) or not isinstance(K, int) or K < 1:
        raise ScenarioError("epochs: expected a positive integer")
    raw_paths = doc.get("paths")
    if not isinstance(raw_paths, list) or not raw_paths:
        raise ScenarioError("paths: expected a nonempty list")
    records = []
    for i, entry in enumerate(raw_paths):
        if not isinstance(entry, dict) or "id" not in entry or "probability" not in entry:
            raise ScenarioError(f"paths[{i}]: expected an object with id and probability")
        probability = _rational(entry["probability"], f"paths[{i}].probability", memo)
        records.append(PathRecord(str(entry["id"]), probability))
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"paths: duplicate ids {sorted({i for i in ids if ids.count(i) > 1})}")

    raw_filt = doc.get("filtration")
    if not isinstance(raw_filt, list) or len(raw_filt) != K + 1:
        raise ScenarioError(f"filtration: expected {K + 1} per-epoch partitions")
    filtration = tuple(
        _parse_partition(raw_filt[k], ids, f"filtration epoch {k}") for k in range(K + 1)
    )
    raw_meyer = doc.get("meyer")
    if not isinstance(raw_meyer, list) or len(raw_meyer) != K + 1:
        raise ScenarioError(f"meyer: expected {K + 1} per-epoch partitions")
    meyer_fields = tuple(
        _parse_partition(raw_meyer[k], ids, f"meyer epoch {k}") for k in range(K + 1)
    )
    initial = None
    if "initial_field" in doc:
        initial = _parse_partition(doc["initial_field"], ids, "initial_field")

    lattice = FilteredLattice(
        epoch_count=K, paths=tuple(records), filtration=filtration, initial_field=initial
    )
    meyer = MeyerStructure(meyer_fields=meyer_fields)
    report = validate_lattice(lattice, meyer)
    if not report.ok:
        raise ScenarioError("; ".join(report.problems))

    n = lattice.n_instants
    processes: dict[str, LatticeProcess] = {}
    raw_procs = doc.get("processes", {})
    if not isinstance(raw_procs, dict):
        raise ScenarioError("processes: expected an object keyed by process name")
    for name in sorted(raw_procs):
        rows = _parse_value_rows(raw_procs[name], ids, n, f"processes.{name}", memo)
        processes[name] = LatticeProcess.from_rows(rows)

    g_spec = g = None
    if "g" in doc:
        if not isinstance(doc["g"], dict):
            raise ScenarioError("g: expected an object")
        g_spec, g = _canonical_g_spec(doc["g"], lattice, strict, memo)

    mu = None
    if "mu" in doc:
        mu_rows = _parse_value_rows(doc["mu"], ids, n, "mu", memo)
        if any(v < 0 for row in mu_rows for v in row):
            raise ScenarioError("mu: masses must be nonnegative")
        mu = RandomMeasure(mass=mu_rows)

    signal = doc.get("signal")
    reward = doc.get("reward")
    for label, name in (("signal", signal), ("reward", reward)):
        if name is not None and (not isinstance(name, str) or name not in processes):
            raise ScenarioError(f"{label}: names unknown process {name!r}")

    ell_grid = None
    if "ell_grid" in doc:
        if not isinstance(doc["ell_grid"], list):
            raise ScenarioError("ell_grid: expected a list of rationals")
        ell_grid = tuple(
            _rational(v, f"ell_grid[{i}]", memo) for i, v in enumerate(doc["ell_grid"])
        )

    commands = doc.get("commands")
    if commands is not None and not isinstance(commands, dict):
        raise ScenarioError("commands: expected an object")

    scenario = Scenario(
        lattice=lattice,
        meyer=meyer,
        processes=processes,
        g_spec=g_spec,
        mu=mu,
        signal=signal,
        reward=reward,
        ell_grid=ell_grid,
        commands=commands,
    )
    # the frozen scenario's caches, filled with the spec and family built above
    object.__setattr__(scenario, "g", g)
    object.__setattr__(scenario, "_canonical_g", g_spec)
    return scenario


def _canonical_g_spec(
    raw: dict, lattice: FilteredLattice, strict: bool, memo: dict[str, Fraction]
) -> tuple[dict, GFamily]:
    """Normalize a g spec: rationals to lowest-term strings, keys ordered;
    returned with the `GFamily` it describes.

    Unknown g keys are rejected in strict mode and dropped with a warning
    otherwise, as unknown top-level fields are.  The spec is parsed once,
    into the `GFamily` whose rows it renders, so a malformed one fails here.
    """
    unknown = sorted(set(raw) - KNOWN_G_FIELDS)
    if unknown:
        if strict:
            raise ScenarioError(f"unknown g fields {unknown} (strict mode)")
        warnings.warn(f"ignoring unknown g fields {unknown}", stacklevel=3)
    g, ids = _g_from_spec(raw, lattice, memo), lattice.path_ids
    out: dict[str, Any] = {"kind": raw.get("kind")}
    if "power" in raw:
        out["power"] = raw["power"]
    for key, rows in (("a", g.a), ("b", g.b)):
        out[key] = {pid: [str(v) for v in row] for pid, row in zip(ids, rows)}
    return out, g


def render_scenario(scenario: Scenario) -> str:
    """Canonical serialization: fixed key order, lowest-term rationals."""
    lat = scenario.lattice
    ids = lat.path_ids
    doc: dict[str, Any] = {
        "epochs": lat.epoch_count,
        "paths": [{"id": r.id, "probability": str(r.probability)} for r in lat.paths],
    }
    if lat.initial_field is not None:
        doc["initial_field"] = _render_partition(lat.initial_field, ids)
    doc["filtration"] = [_render_partition(p, ids) for p in lat.filtration]
    doc["meyer"] = [_render_partition(p, ids) for p in scenario.meyer.meyer_fields]
    if scenario.processes:
        doc["processes"] = {
            name: {pid: [str(v) for v in row] for pid, row in zip(ids, proc.rows)}
            for name, proc in sorted(scenario.processes.items())
        }
    if scenario.g_spec is not None:
        doc["g"] = scenario._canonical_g
    if scenario.mu is not None:
        doc["mu"] = {ids[p]: [str(v) for v in scenario.mu.mass[p]] for p in range(lat.n_paths)}
    if scenario.signal is not None:
        doc["signal"] = scenario.signal
    if scenario.reward is not None:
        doc["reward"] = scenario.reward
    if scenario.ell_grid is not None:
        doc["ell_grid"] = [str(v) for v in scenario.ell_grid]
    if scenario.commands is not None:
        doc["commands"] = scenario.commands
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


PREDICTABLE_EXTREME = "PREDICTABLE_EXTREME"
OPTIONAL_EXTREME = "OPTIONAL_EXTREME"
RANDOM_BETWEEN = "RANDOM_BETWEEN"
REGIMES = (PREDICTABLE_EXTREME, OPTIONAL_EXTREME, RANDOM_BETWEEN)


# Generated values are drawn from 0..VALUE_RANGE, and mu charges each grid
# instant of a path with probability MU_DENSITY.
VALUE_RANGE = 6
MU_DENSITY = 0.5


class RandomInstanceParams(_Record):
    """Knobs for seeded generation: the seed, the last epoch, the path
    budget and the Meyer regime; instances are pure functions of them.  A
    `_Record`, as it validates."""

    def __init__(
        self, seed: int, epochs: int = 2, max_paths: int = 8, regime: str = RANDOM_BETWEEN
    ) -> None:
        self._store(seed, epochs, max_paths, regime)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (1 <= self.epochs <= 4):
            raise ScenarioError("epochs must lie in 1..4")
        if not (2 <= self.max_paths <= 12):
            raise ScenarioError("max_paths must lie in 2..12")
        if self.regime not in REGIMES:
            raise ScenarioError(f"unknown regime {self.regime!r}")


def _grow_tree(rng: random.Random, epochs: int, max_paths: int) -> list[tuple[tuple[int, int], ...]]:
    """Binary branching signatures: each leaf lists its (epoch, side) splits."""
    leaves: list[tuple[tuple[int, int], ...]] = [()]
    for k in range(1, epochs + 1):
        grown: list[tuple[tuple[int, int], ...]] = []
        remaining = len(leaves)
        for sig in leaves:
            remaining -= 1
            # splitting adds one leaf; stay within the path budget
            if len(grown) + 1 + remaining < max_paths and rng.random() < 0.72:
                grown.append(sig + ((k, 0),))
                grown.append(sig + ((k, 1),))
            else:
                grown.append(sig)
        leaves = grown
    if len(leaves) == 1:
        split_at = rng.randint(1, epochs)
        leaves = [((split_at, 0),), ((split_at, 1),)]
    return leaves


def _merge_children(rng: random.Random, children: list[frozenset[int]]) -> list[frozenset[int]]:
    if len(children) == 1:
        return children
    order = list(range(len(children)))
    rng.shuffle(order)
    n_groups = rng.randint(1, len(children))
    groups: list[set[int]] = [set() for _ in range(n_groups)]
    for j, c in enumerate(order):
        groups[j % n_groups].update(children[c])
    return [frozenset(g) for g in groups if g]


def generate_instance(params: RandomInstanceParams) -> Scenario:
    """Deterministic random scenario: binary-branching lattice, a Meyer
    structure per the regime, one nonnegative reward, and a (g, mu, L)
    bundle with an 8-point level grid spanning the signal's range."""
    rng = random.Random(params.seed)
    K = params.epochs
    leaves = _grow_tree(rng, K, params.max_paths)
    n = len(leaves)
    ids = [f"p{i}" for i in range(n)]

    def partition_at(k: int) -> Partition:
        groups: dict[tuple, set[int]] = {}
        for i, sig in enumerate(leaves):
            key = tuple(s for s in sig if s[0] <= k)
            groups.setdefault(key, set()).add(i)
        return make_partition(groups.values())

    filtration = tuple(partition_at(k) for k in range(K + 1))

    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    records = tuple(PathRecord(ids[i], Fraction(weights[i], total)) for i in range(n))
    lattice = FilteredLattice(epoch_count=K, paths=records, filtration=filtration)

    meyer_parts: list[Partition] = []
    for k in range(K + 1):
        below = lattice.initial_partition() if k == 0 else filtration[k - 1]
        if params.regime == PREDICTABLE_EXTREME:
            meyer_parts.append(below)
        elif params.regime == OPTIONAL_EXTREME:
            meyer_parts.append(filtration[k])
        else:
            merged: list[frozenset[int]] = []
            for coarse in below:
                children = [b for b in filtration[k] if b <= coarse]
                merged.extend(_merge_children(rng, children))
            meyer_parts.append(make_partition(merged))
    meyer = MeyerStructure(meyer_fields=tuple(meyer_parts))

    n_inst = lattice.n_instants
    zero = (Fraction(0),) * n

    def per_atom(kind: Kind, draw) -> list[list]:
        """One column per instant, holding `draw(cols, idx, atom)` on each atom
        of the instant's `kind` field; `cols` are the columns drawn so far."""
        cols: list[list] = []
        for idx, part in enumerate(field_partitions(lattice, meyer, kind)):
            col = [None] * n
            for atom in part:
                v = draw(cols, idx, atom)
                for p in atom:
                    col[p] = v
            cols.append(col)
        return cols

    last_zero = rng.random() < 0.5
    reward_cols = per_atom(
        Kind.LAMBDA,
        lambda cols, idx, atom: Fraction(rng.randint(0, VALUE_RANGE), rng.choice((1, 1, 2))),
    )
    if last_zero:
        reward_cols[-1] = zero
    reward = LatticeProcess((*map(tuple, reward_cols), zero))

    # The signal never drops from an interval into the next grid point and mu
    # charges grid instants only; with nonnegative g this makes the forward
    # reward left-USC in expectation, the hypothesis of the signal theorem.
    def signal_level(cols, idx, atom) -> Fraction:
        floor = max(cols[idx - 1][p] for p in atom) if idx % 2 == 0 and idx > 0 else 0
        return floor + Fraction(rng.randint(0, VALUE_RANGE))

    sig_cols = per_atom(Kind.LAMBDA, signal_level)
    signal = LatticeProcess((*map(tuple, sig_cols), zero))

    # one (a, b) pair of g rates per optional atom, a drawn first
    rates = per_atom(Kind.OPTIONAL, lambda cols, idx, atom: (rng.randint(0, 3), rng.randint(1, 3)))
    g_spec: dict[str, Any] = {"kind": "affine"}
    for j, key in enumerate("ab"):
        g_spec[key] = {ids[p]: [str(col[p][j]) for col in rates] for p in range(n)}

    mass_rows = []
    for p in range(n):
        row = []
        for idx in range(n_inst):
            if idx % 2 == 0 and rng.random() < MU_DENSITY:
                row.append(Fraction(rng.randint(1, 3)))
            else:
                row.append(Fraction(0))
        mass_rows.append(tuple(row))
    mu = RandomMeasure(mass=tuple(mass_rows))

    l_values = [v for col in sig_cols for v in col]
    lo, hi = min(l_values), max(l_values)
    if lo == hi:
        grid = tuple(lo + i - 3 for i in range(8))
    else:
        grid = tuple(lo + Fraction(i, 7) * (hi - lo) for i in range(8))

    return Scenario(
        lattice=lattice,
        meyer=meyer,
        processes={"L": signal, "Z": reward},
        g_spec=g_spec,
        mu=mu,
        signal="L",
        ell_grid=grid,
    )
