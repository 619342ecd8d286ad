"""Workload inputs, built from the benchmark seed through meyerstop's public API.

Each workload writes its scenario files into a work directory and returns
the fixed list of CLI invocations that makes up one pass.  The lattice
shapes are fixed per workload; the seed draws the numbers on them (path
weights, rewards, signals, Meyer switches), so every seed costs about the
same and the same seed always gives the same files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from meyerstop import (
    OPTIONAL_EXTREME,
    RANDOM_BETWEEN,
    FilteredLattice,
    Kind,
    LatticeProcess,
    MeyerStructure,
    PathRecord,
    RandomInstanceParams,
    RandomMeasure,
    Scenario,
    generate_instance,
    render_scenario,
    sigma_field_at,
    validate_lattice,
)
from meyerstop.lattice import make_partition


@dataclass(frozen=True)
class Op:
    """One in-process `meyerstop.cli.main(argv)` call and the file it writes."""

    command: str
    scenario: Path
    out: Path
    extra: tuple[str, ...] = ()

    def argv(self, out: Path | None = None) -> list[str]:
        target = self.out if out is None else out
        return [
            self.command,
            "--scenario",
            str(self.scenario),
            *self.extra,
            "--format",
            "machine",
            "--out",
            str(target),
        ]


def _columns_by_field(lattice, meyer, kind, draw):
    """Per-instant columns, one `draw(idx, atom)` value per atom of the field."""
    n = lattice.n_paths
    cols = []
    for idx in range(lattice.n_instants):
        part = sigma_field_at(lattice, meyer, lattice.instant_at(idx), kind)
        col = [Fraction(0)] * n
        for atom in part:
            v = draw(idx, atom, cols)
            for p in atom:
                col[p] = v
        cols.append(col)
    return cols


def _rows(cols, n_paths):
    return tuple(tuple(col[p] for col in cols) for p in range(n_paths))


def draw_reward(rng, lattice, meyer, high, denominators, last_zero=False):
    """A nonnegative Lambda-measurable reward with values k/d, 0 <= k <= high."""
    cols = _columns_by_field(
        lattice,
        meyer,
        Kind.LAMBDA,
        lambda idx, atom, cols: Fraction(rng.randint(0, high), rng.choice(denominators)),
    )
    if last_zero:
        cols[-1] = [Fraction(0)] * lattice.n_paths
    return LatticeProcess.from_rows(_rows(cols, lattice.n_paths))


def _write(path: Path, scenario: Scenario) -> None:
    report = validate_lattice(scenario.lattice, scenario.meyer)
    if not report.ok:
        raise ValueError(f"{path.name}: invalid lattice: {report.problems}")
    path.write_text(render_scenario(scenario), encoding="utf-8")


class OracleGuard:
    """`meyerstop oracle` on 4-epoch, 9-path RANDOM_BETWEEN lattices.

    The lattices (filtration and Meyer fields) are those that
    `generate_instance` draws for STRUCTURE_SEEDS; they admit 12 245,
    66 419 and 167 231 Lambda-stopping times.  The reward is redrawn from
    the benchmark seed.
    """

    name = "oracle_guard"
    setup_reps = 9
    STRUCTURE_SEEDS = (131, 8, 21)

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for s in self.STRUCTURE_SEEDS:
            base = generate_instance(
                RandomInstanceParams(seed=s, epochs=4, max_paths=9, regime=RANDOM_BETWEEN)
            )
            Z = draw_reward(rng, base.lattice, base.meyer, 20, (1, 2))
            scenario = Scenario(lattice=base.lattice, meyer=base.meyer, processes={"Z": Z})
            path = workdir / f"oracle-{s}.scn"
            _write(path, scenario)
            ops.append(Op("oracle", path, workdir / f"oracle-{s}.out"))
        return ops


class SuiteHeavy:
    """`meyerstop suite --jobs 2` on a heavy generated lattice.

    The lattice is `generate_instance(seed=62, epochs=4, max_paths=6,
    OPTIONAL_EXTREME)`: 5 paths, 745 Lambda-stopping times.  The reward Z,
    the signal L, the affine g, the measure mu and the 8-level grid are
    redrawn from the benchmark seed by the generator's own rules, so the
    forward reward stays left-USC in expectation.
    """

    name = "suite_heavy"
    setup_reps = 9
    STRUCTURE_SEED = 62
    JOBS = "2"

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(seed)
        base = generate_instance(
            RandomInstanceParams(
                seed=self.STRUCTURE_SEED, epochs=4, max_paths=6, regime=OPTIONAL_EXTREME
            )
        )
        lattice, meyer = base.lattice, base.meyer
        n, ids = lattice.n_paths, lattice.path_ids
        Z = draw_reward(rng, lattice, meyer, 6, (1, 1, 2), last_zero=rng.random() < 0.5)

        def signal(idx, atom, cols):
            floor = Fraction(0)
            if idx % 2 == 0 and idx > 0:
                floor = max(cols[idx - 1][p] for p in atom)
            return floor + rng.randint(0, 6)

        L = _rows(_columns_by_field(lattice, meyer, Kind.LAMBDA, signal), n)
        g_a = _columns_by_field(lattice, meyer, Kind.OPTIONAL, lambda i, a, c: Fraction(rng.randint(0, 3)))
        g_b = _columns_by_field(lattice, meyer, Kind.OPTIONAL, lambda i, a, c: Fraction(rng.randint(1, 3)))
        g_spec = {
            "kind": "affine",
            "a": {ids[p]: [str(col[p]) for col in g_a] for p in range(n)},
            "b": {ids[p]: [str(col[p]) for col in g_b] for p in range(n)},
        }
        mass = tuple(
            tuple(
                Fraction(rng.randint(1, 3)) if idx % 2 == 0 and rng.random() < 0.5 else Fraction(0)
                for idx in range(lattice.n_instants)
            )
            for _ in range(n)
        )
        levels = [v for row in L for v in row]
        lo, hi = min(levels), max(levels)
        if lo == hi:
            grid = tuple(lo + i - 3 for i in range(8))
        else:
            grid = tuple(lo + Fraction(i, 7) * (hi - lo) for i in range(8))
        scenario = Scenario(
            lattice=lattice,
            meyer=meyer,
            processes={"L": LatticeProcess.from_rows(L), "Z": Z},
            g_spec=g_spec,
            mu=RandomMeasure(mass=mass),
            signal="L",
            ell_grid=grid,
        )
        path = workdir / "suite.scn"
        _write(path, scenario)
        return [Op("suite", path, workdir / "suite.out", ("--jobs", self.JOBS))]


def binary_tree(rng: random.Random, depth: int) -> tuple[FilteredLattice, MeyerStructure]:
    """Full binary tree: F_k splits the paths by their first k branch bits.

    2**depth paths with integer weights 1..9, epochs 0..depth, F_0 trivial.
    G_0 is trivial; for k >= 1, G_k is F_{k-1} (predictable) on half of the
    epochs and F_k (optional) on the other half, shuffled by the seed.
    """
    n = 1 << depth
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    paths = tuple(PathRecord(f"p{i:05d}", Fraction(w, total)) for i, w in enumerate(weights))
    filtration = tuple(
        make_partition(range(j << (depth - k), (j + 1) << (depth - k)) for j in range(1 << k))
        for k in range(depth + 1)
    )
    optional = [k % 2 == 0 for k in range(1, depth + 1)]
    rng.shuffle(optional)
    meyer = (filtration[0],) + tuple(
        filtration[k] if optional[k - 1] else filtration[k - 1] for k in range(1, depth + 1)
    )
    return FilteredLattice(epoch_count=depth, paths=paths, filtration=filtration), MeyerStructure(
        meyer_fields=meyer
    )


class EnvelopeWide:
    """`meyerstop decompose` and `meyerstop stop` on binary trees of DEPTHS."""

    name = "envelope_wide"
    setup_reps = 5
    DEPTHS = (8, 10)

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for depth in self.DEPTHS:
            lattice, meyer = binary_tree(rng, depth)
            Z = draw_reward(rng, lattice, meyer, 20, (1, 2, 4))
            path = workdir / f"tree-{depth}.scn"
            _write(path, Scenario(lattice=lattice, meyer=meyer, processes={"Z": Z}))
            for command in ("decompose", "stop"):
                ops.append(Op(command, path, workdir / f"{command}-{depth}.out"))
        return ops


WORKLOADS = {w.name: w for w in (OracleGuard(), SuiteHeavy(), EnvelopeWide())}
