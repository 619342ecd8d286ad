"""Value semantics of every public record class.

Each record is built from the fixtures and checked for what callers may
rely on: equality with an equal copy and not with a one-field change, the
hash of its field tuple, its repr text, immutability, and pickle and copy
round trips.  The field lists below pin each constructor's field order.
"""

from __future__ import annotations

import copy
import functools
import pickle
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest

import meyerstop.checks
import meyerstop.cli
from meyerstop.lattice import (
    AT,
    INT,
    DividedQuadruple,
    FilteredLattice,
    Instant,
    LatticeError,
    LatticeProcess,
    MeyerStructure,
    PathRecord,
    RandomInstant,
    ValidationReport,
    to_divided_quadruple,
    validate_lattice,
)
from meyerstop.projection import (
    EquivalenceReport,
    FatouReport,
    UscVerdict,
    check_projection_fatou,
    check_usc_sequence_equivalence,
    is_right_usc_in_expectation,
)
from meyerstop.representation import (
    GFamily,
    LevelPassage,
    RandomMeasure,
    RepresentationProblem,
    SignalReport,
    SignalRow,
    level_passage,
    universal_signal_check,
)
from meyerstop.scenario import RandomInstanceParams, Scenario, ScenarioError, parse_scenario
from meyerstop.snell import (
    BruteForceResult,
    DeltaStop,
    MertensDecomposition,
    OptimalityCertificate,
    SigmaStop,
    SmallestLargest,
    check_optimality,
    delta_stop,
    mertens_decompose,
    sigma_stop,
    smallest_largest_optimal,
    snell_brute_force,
    snell_envelope,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _scenario(name: str) -> Scenario:
    return parse_scenario((FIXTURES / f"{name}.scn").read_text(encoding="utf-8"))


def _records() -> dict[type, tuple[object, tuple[str, ...], tuple[str, object]]]:
    """Per class: one instance, its fields in constructor order, and one
    field with a different value."""
    branch = _scenario("branch")
    lattice, meyer, z = branch.lattice, branch.meyer, branch.processes["Z"]
    zbar = snell_envelope(lattice, meyer, z)
    decomp = mertens_decompose(lattice, meyer, zbar)
    zero = RandomInstant((0,) * lattice.n_paths, lattice.n_instants)
    later = RandomInstant.constant(lattice, Instant(1, AT))
    delta = delta_stop(lattice, meyer, z, zero, zbar)
    brute = snell_brute_force(lattice, meyer, z)
    # a module-level maximizers keeps the result picklable
    brute = BruteForceResult(
        brute.value,
        brute.stopping_time_count,
        brute.optimizer_count,
        functools.partial(list, brute.optimizers),
    )

    chain = _scenario("signal_chain")
    problem = chain.build_problem()
    signal = universal_signal_check(problem, chain.ell_grid)
    passage = level_passage(chain.lattice, chain.meyer, problem.L, Fraction(2), 1)
    grid = (Fraction(5),)

    return {
        Instant: (Instant(1, AT), ("epoch", "tag"), ("tag", INT)),
        PathRecord: (lattice.paths[0], ("id", "probability"), ("id", "c")),
        FilteredLattice: (
            lattice,
            ("epoch_count", "paths", "filtration", "initial_field"),
            ("initial_field", lattice.initial_partition()),
        ),
        MeyerStructure: (meyer, ("meyer_fields",), ("meyer_fields", lattice.filtration[:1])),
        ValidationReport: (validate_lattice(lattice, meyer), ("ok", "problems"), ("ok", False)),
        LatticeProcess: (z, ("columns",), ("columns", zbar.columns)),
        RandomInstant: (later, ("indices", "n_instants"), ("indices", zero.indices)),
        DividedQuadruple: (
            to_divided_quadruple(lattice, meyer, later),
            ("T", "w_minus", "w", "w_plus"),
            ("T", zero),
        ),
        UscVerdict: (
            is_right_usc_in_expectation(lattice, meyer, z), ("ok", "witness"), ("ok", False)
        ),
        EquivalenceReport: (
            check_usc_sequence_equivalence(lattice, meyer, z),
            (
                "right_predicate",
                "right_sequential",
                "left_predicate",
                "left_sequential",
                "counterexample",
            ),
            ("counterexample", "x"),
        ),
        FatouReport: (
            check_projection_fatou(lattice, meyer, z),
            ("optional_checked", "predictable_checked", "violations"),
            ("violations", ("x",)),
        ),
        GFamily: (problem.g, ("a", "b", "power"), ("power", 3)),
        RandomMeasure: (problem.mu, ("mass",), ("mass", problem.g.b)),
        RepresentationProblem: (
            problem,
            ("lattice", "meyer", "g", "mu", "X", "L"),
            ("L", LatticeProcess.constant(chain.lattice, 1)),
        ),
        LevelPassage: (passage, ("T", "quadruple"), ("T", zero)),
        SignalRow: (
            signal.rows[0],
            ("ell", "value_variant_1", "value_variant_2", "brute_force", "optimizer_count"),
            ("ell", Fraction(-1)),
        ),
        SignalReport: (signal, ("rows", "right_usc_holds"), ("rows", signal.rows[:1])),
        MertensDecomposition: (
            decomp,
            ("m", "a", "b", "b_shifted", "delta_a", "delta_b", "a_terminal_jump"),
            ("m", zbar),
        ),
        DeltaStop: (delta, ("T", "quadruple"), ("T", zero)),
        SigmaStop: (
            sigma_stop(lattice, zero, decomp),
            ("T", "quadruple", "k_minus", "k_on", "k_plus"),
            ("k_plus", frozenset({0, 1})),
        ),
        OptimalityCertificate: (
            check_optimality(lattice, meyer, z, delta.T, zbar),
            ("candidate", "condition_i", "condition_ii"),
            ("condition_ii", False),
        ),
        SmallestLargest: (
            smallest_largest_optimal(lattice, meyer, z, zbar, decomp),
            ("smallest", "largest"),
            ("smallest", zero),
        ),
        BruteForceResult: (
            brute,
            ("value", "stopping_time_count", "optimizer_count", "maximizers"),
            ("value", brute.value + 1),
        ),
        Scenario: (
            chain,
            (
                "lattice",
                "meyer",
                "processes",
                "g_spec",
                "mu",
                "signal",
                "reward",
                "ell_grid",
                "commands",
            ),
            ("ell_grid", grid),
        ),
        RandomInstanceParams: (
            RandomInstanceParams(seed=3),
            ("seed", "epochs", "max_paths", "regime"),
            ("max_paths", 9),
        ),
    }


RECORDS = _records()
# fields that equality, hash and repr leave out
UNCOMPARED = {BruteForceResult: ("maximizers",)}
# reprs that are not the generic `Name(field=...)`
REPRS = {
    Instant: "(1,AT)",
    RandomInstant: "RandomInstant(assignment=((1,AT), (1,AT)))",
}


MODULES = (
    "lattice", "enumeration", "projection", "snell", "representation", "scenario", "checks", "cli"
)


def test_every_public_record_is_covered():
    modules = [getattr(meyerstop, name) for name in MODULES]
    public = {
        obj
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
        and not issubclass(obj, (Enum, Exception))
    }
    assert public == set(RECORDS) and len(RECORDS) == 25


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_a_record_is_an_immutable_value(cls):
    record, fields, (name, other) = RECORDS[cls]
    assert type(record) is cls
    values = {f: getattr(record, f) for f in fields}
    compared = tuple(values[f] for f in fields if f not in UNCOMPARED.get(cls, ()))

    twin = cls(*values.values())
    assert twin == record and not twin != record and twin is not record
    assert cls(**{**values, name: other}) != record
    for f in UNCOMPARED.get(cls, ()):
        assert cls(**{**values, f: None}) == record

    if cls is Scenario:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(compared)

    shown = ", ".join(f"{f}={values[f]!r}" for f in fields if f not in UNCOMPARED.get(cls, ()))
    assert repr(record) == REPRS.get(cls, f"{cls.__name__}({shown})")

    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[fields[0]])
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert getattr(record, fields[0]) is values[fields[0]]

    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_validating_records_raise_their_named_errors():
    chain = _scenario("signal_chain")
    p, wrong = chain.build_problem(), _scenario("branch").processes["Z"]
    bad = [
        (LatticeError, lambda: Instant(-1, AT)),
        (LatticeError, lambda: Instant(0, "MID")),
        (LatticeError, lambda: RepresentationProblem(p.lattice, p.meyer, p.g, p.mu)),
        (LatticeError, lambda: RepresentationProblem(p.lattice, p.meyer, p.g, p.mu, p.L, p.L)),
        # the other fixture's reward has the wrong shape
        (LatticeError, lambda: RepresentationProblem(p.lattice, p.meyer, p.g, p.mu, wrong)),
        (ScenarioError, lambda: Scenario(chain.lattice, chain.meyer, {}, signal="L", reward="L")),
        (ScenarioError, lambda: RandomInstanceParams(seed=0, epochs=5)),
        (ScenarioError, lambda: RandomInstanceParams(seed=0, max_paths=1)),
        (ScenarioError, lambda: RandomInstanceParams(seed=0, regime="none")),
    ]
    for error, build in bad:
        with pytest.raises(error):
            build()
