"""Reference computations for the benchmark, made apart from meyerstop.

Nothing here imports meyerstop.  Scenario files and CLI reports are read as
plain JSON, rationals are parsed with `fractions.Fraction`, and every number
the checks compare against is computed by the code below:

- `envelope`: the backward recursion Zbar_i = max(Z_i, E[Zbar_{i+1} | Lambda_i])
  with Zbar = 0 at TERMINAL, and its root value E[Zbar_0];
- `optimum`: the best E[Z_T] over Lambda-stopping times and the number of
  stopping times attaining it, by a memoized recursion over (instant, atom);
- `count_stopping_times`: the memoized product formula
  C(i, a) = prod over atoms b of a at instant i of (1 + C(i+1, b));
- `is_stopping_time`: {T <= i} is a union of atoms at every instant i;
- `expected_reward`: E[Z_T] for a given time.

The `check_*` functions return a list of problems, empty when the report
is right.
"""

from __future__ import annotations

import json
from fractions import Fraction

TERMINAL = "TERMINAL"


class ReferenceError(ValueError):
    """The scenario itself breaks an assumption the reference relies on."""


class RefScenario:
    """The parts of a scenario file the reference checks need."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.epochs = doc["epochs"]
        self.ids = [p["id"] for p in doc["paths"]]
        self.index = {pid: i for i, pid in enumerate(self.ids)}
        self.probs = [Fraction(p["probability"]) for p in doc["paths"]]
        self.n_paths = len(self.ids)
        self.n_instants = 2 * (self.epochs + 1)
        filtration = [self._partition(part) for part in doc["filtration"]]
        meyer = [self._partition(part) for part in doc["meyer"]]
        # Lambda field per instant: G_k at (k,AT), F_k at (k,INT).
        self.fields = []
        for k in range(self.epochs + 1):
            self.fields.append(meyer[k])
            self.fields.append(filtration[k])
        for i in range(1, self.n_instants):
            if not _refines(self.fields[i], self.fields[i - 1]):
                raise ReferenceError(f"instant {i} field does not refine instant {i - 1}")
        self.processes = {
            name: [[Fraction(v) for v in rows[pid]] for pid in self.ids]
            for name, rows in doc.get("processes", {}).items()
        }
        self.signal = doc.get("signal")
        self.reward = doc.get("reward")
        self.has_problem = "g" in doc and "mu" in doc and (
            self.signal is not None or self.reward is not None
        )
        self.ell_grid = doc.get("ell_grid") or []

    def _partition(self, raw) -> list[frozenset[int]]:
        return [frozenset(self.index[pid] for pid in atom) for atom in raw]

    def atom_map(self, i: int) -> dict[int, frozenset[int]]:
        return {p: atom for atom in self.fields[i] for p in atom}


def _refines(finer, coarser) -> bool:
    return all(any(b <= c for c in coarser) for b in finer)


def parse_instant(text: str, n_instants: int) -> int:
    """'(k,AT)' -> 2k, '(k,INT)' -> 2k+1, 'TERMINAL' -> n_instants."""
    if text == TERMINAL:
        return n_instants
    epoch, tag = text.strip("()").split(",")
    return 2 * int(epoch) + (0 if tag == "AT" else 1)


def read_time(sc: RefScenario, doc: dict) -> list[int]:
    """A report's {path id: instant} map as per-path instant indices."""
    if sorted(doc) != sorted(sc.ids):
        raise ReferenceError("time document does not cover exactly the path ids")
    return [parse_instant(doc[pid], sc.n_instants) for pid in sc.ids]


def read_process(sc: RefScenario, doc: dict) -> list[list[Fraction]]:
    if sorted(doc) != sorted(sc.ids):
        raise ReferenceError("process document does not cover exactly the path ids")
    return [[Fraction(v) for v in doc[pid]] for pid in sc.ids]


def cond_exp(sc: RefScenario, column, field) -> list[Fraction]:
    out = [Fraction(0)] * sc.n_paths
    for atom in field:
        mass = sum(sc.probs[p] for p in atom)
        avg = sum(sc.probs[p] * column[p] for p in atom) / mass
        for p in atom:
            out[p] = avg
    return out


def envelope(sc: RefScenario, Z) -> tuple[list[list[Fraction]], Fraction]:
    """Per-path envelope rows and the root value E[Zbar_0]."""
    n = sc.n_instants
    cols: list[list[Fraction]] = [[] for _ in range(n)]
    nxt = [Fraction(0)] * sc.n_paths
    for i in range(n - 1, -1, -1):
        cont = cond_exp(sc, nxt, sc.fields[i])
        cols[i] = [max(Z[p][i], cont[p]) for p in range(sc.n_paths)]
        nxt = cols[i]
    rows = [[cols[i][p] for i in range(n)] for p in range(sc.n_paths)]
    root = sum(sc.probs[p] * cols[0][p] for p in range(sc.n_paths))
    return rows, root


def optimum(sc: RefScenario, Z) -> tuple[Fraction, int]:
    """(max E[Z_T], number of Lambda-stopping times attaining it)."""
    n = sc.n_instants
    memo: dict[tuple[int, frozenset[int]], tuple[Fraction, int]] = {}

    def best(i: int, active: frozenset[int]) -> tuple[Fraction, int]:
        if i == n:
            return Fraction(0), 1
        key = (i, active)
        if key in memo:
            return memo[key]
        value, ways = Fraction(0), 1
        for atom in sc.fields[i]:
            if not atom <= active:
                continue
            stop = sum(sc.probs[p] * Z[p][i] for p in atom)
            wait, wait_ways = best(i + 1, atom)
            top = max(stop, wait)
            value += top
            ways *= (stop == top) + (wait == top) * wait_ways
        memo[key] = (value, ways)
        return value, ways

    return best(0, frozenset(range(sc.n_paths)))


def count_stopping_times(sc: RefScenario) -> int:
    n = sc.n_instants
    memo: dict[tuple[int, frozenset[int]], int] = {}

    def count(i: int, active: frozenset[int]) -> int:
        if i == n:
            return 1
        key = (i, active)
        if key not in memo:
            total = 1
            for atom in sc.fields[i]:
                if atom <= active:
                    total *= 1 + count(i + 1, atom)
            memo[key] = total
        return memo[key]

    return count(0, frozenset(range(sc.n_paths)))


def is_stopping_time(sc: RefScenario, T: list[int]) -> bool:
    if len(T) != sc.n_paths or any(not 0 <= t <= sc.n_instants for t in T):
        return False
    for i, field in enumerate(sc.fields):
        stopped = {p for p in range(sc.n_paths) if T[p] <= i}
        for atom in field:
            if atom & stopped and not atom <= stopped:
                return False
    return True


def expected_reward(sc: RefScenario, Z, T: list[int]) -> Fraction:
    """E[Z_T]; a reward reads 0 at TERMINAL."""
    return sum(
        sc.probs[p] * Z[p][T[p]] for p in range(sc.n_paths) if T[p] < sc.n_instants
    )


def is_reward(sc: RefScenario, Z) -> bool:
    """Lambda-measurable and nonnegative (the terminal slice is always 0)."""
    if any(v < 0 for row in Z for v in row):
        return False
    for i, field in enumerate(sc.fields):
        for atom in field:
            if len({Z[p][i] for p in atom}) > 1:
                return False
    return True


def default_process(sc: RefScenario) -> str:
    """The process the CLI picks without --process."""
    if sc.reward is not None:
        return sc.reward
    if "Z" in sc.processes:
        return "Z"
    return sorted(sc.processes)[0]


def check_oracle(sc: RefScenario, doc: dict) -> list[str]:
    name = default_process(sc)
    Z = sc.processes[name]
    problems = []
    _, root = envelope(sc, Z)
    value, ways = optimum(sc, Z)
    if value != root:
        raise ReferenceError(f"reference optimum {value} differs from reference envelope {root}")
    if doc.get("process") != name:
        problems.append(f"process {doc.get('process')!r} is not {name!r}")
    if Fraction(doc["value"]) != root:
        problems.append(f"value {doc['value']} differs from the reference {root}")
    count = count_stopping_times(sc)
    if doc["stopping_time_count"] != count:
        problems.append(
            f"stopping_time_count {doc['stopping_time_count']} differs from the reference {count}"
        )
    times = [read_time(sc, t) for t in doc["optimizers"]]
    if len({tuple(t) for t in times}) != len(times):
        problems.append("optimizers repeat")
    if len(times) != ways:
        problems.append(f"{len(times)} optimizers listed, the reference finds {ways}")
    for k, T in enumerate(times):
        if not is_stopping_time(sc, T):
            problems.append(f"optimizer {k} is not a Lambda-stopping time")
        elif expected_reward(sc, Z, T) != root:
            problems.append(f"optimizer {k} does not attain the value")
    return problems


def check_decompose(sc: RefScenario, doc: dict) -> list[str]:
    name = default_process(sc)
    rows, _ = envelope(sc, sc.processes[name])
    n = sc.n_instants
    problems = []
    if read_process(sc, doc["envelope"]) != rows:
        problems.append("envelope differs from the reference recursion")
    M = read_process(sc, doc["martingale"])
    A = read_process(sc, doc["predictable_compensator"])
    B = read_process(sc, doc["jump_compensator"])
    m_term = [Fraction(v) for v in doc["martingale_terminal"]]
    a_jump = [Fraction(v) for v in doc["predictable_terminal_jump"]]
    for p in range(sc.n_paths):
        for i in range(n):
            b_before = B[p][i - 1] if i > 0 else Fraction(0)
            if M[p][i] - A[p][i] - b_before != rows[p][i]:
                problems.append(f"M - A - B_- misses the envelope at path {p}, instant {i}")
                break
        if m_term[p] - (A[p][-1] + a_jump[p]) - B[p][-1] != 0:
            problems.append(f"M - A - B misses 0 at TERMINAL on path {p}")
        if any(x > y for x, y in zip(A[p], A[p][1:])) or a_jump[p] < 0:
            problems.append(f"predictable compensator decreases on path {p}")
        if any(x > y for x, y in zip(B[p], B[p][1:])):
            problems.append(f"jump compensator decreases on path {p}")
    for i in range(n):
        nxt = m_term if i == n - 1 else [M[p][i + 1] for p in range(sc.n_paths)]
        cont = cond_exp(sc, nxt, sc.fields[i])
        if any(M[p][i] != cont[p] for p in range(sc.n_paths)):
            problems.append(f"martingale part fails the martingale property at instant {i}")
    return problems


def check_stop(sc: RefScenario, doc: dict) -> list[str]:
    name = default_process(sc)
    Z = sc.processes[name]
    _, root = envelope(sc, Z)
    problems = []
    if Fraction(doc["value"]) != root:
        problems.append(f"value {doc['value']} differs from the reference {root}")
    for label, T in (
        ("delta time", read_time(sc, doc["delta"]["time"])),
        ("sigma reading", read_time(sc, doc["sigma"]["reading"])),
    ):
        if not is_stopping_time(sc, T):
            problems.append(f"{label} is not a Lambda-stopping time")
        elif expected_reward(sc, Z, T) != root:
            problems.append(f"{label} does not attain the value {root}")
    if doc["relaxation_exact"] is not True:
        problems.append("relaxation_exact is not true")
    return problems


REWARD_PROPERTIES = (
    "usc/equivalence",
    "snell/oracle",
    "snell/dominance",
    "mertens/identities",
    "stop/delta",
    "stop/sigma",
    "optimality/certificates",
    "stop/sandwich",
)


def expected_suite_rows(sc: RefScenario) -> list[str]:
    """The suite's property list for a scenario, in report order."""
    names = ["lattice/valid", "projection/normalization"]
    for proc in sorted(sc.processes):
        names += [
            f"projection/{prop}[{proc}]" for prop in ("tower", "linearity", "duality", "fatou")
        ]
        if is_reward(sc, sc.processes[proc]):
            names += [f"{prop}[{proc}]" for prop in REWARD_PROPERTIES]
    if sc.has_problem:
        names.append("representation/round-trip")
        if sc.ell_grid:
            names.append("representation/universal-signal")
    return names


def check_suite(sc: RefScenario, doc: dict) -> list[str]:
    problems = []
    rows = doc["checks"]
    names = [r["property"] for r in rows]
    if names != expected_suite_rows(sc):
        problems.append(f"suite rows {names} differ from the expected property list")
    for r in rows:
        if r["status"] == "FAIL":
            problems.append(f"{r['property']} FAILs: {r['detail']}")
        elif r["status"] == "SKIP" and not r["property"].startswith("stop/sandwich["):
            problems.append(f"{r['property']} is skipped")
        elif r["status"] not in ("PASS", "SKIP"):
            problems.append(f"{r['property']} has status {r['status']!r}")
    if doc["failed"] != 0 or doc["ok"] is not True:
        problems.append("suite summary reports a failure")
    return problems


CHECKS = {
    "oracle": check_oracle,
    "decompose": check_decompose,
    "stop": check_stop,
    "suite": check_suite,
}
