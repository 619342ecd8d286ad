from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

import meyerstop.lattice as lattice_module
from meyerstop import enumeration
from meyerstop.enumeration import enumerate_stopping_times
from meyerstop.lattice import (
    INT,
    DividedQuadruple,
    FilteredLattice,
    Instant,
    Kind,
    MeyerStructure,
    PathRecord,
    make_partition,
    validate_divided,
)


def build_lattice(probs, filtration_atoms, meyer_atoms, initial_atoms=None):
    """Small helper: atoms are lists of lists of path indices."""
    paths = tuple(
        PathRecord(f"p{i}", Fraction(p)) for i, p in enumerate(probs)
    )
    lattice = FilteredLattice(
        epoch_count=len(filtration_atoms) - 1,
        paths=paths,
        filtration=tuple(make_partition(a) for a in filtration_atoms),
        initial_field=make_partition(initial_atoms) if initial_atoms else None,
    )
    meyer = MeyerStructure(
        meyer_fields=tuple(make_partition(a) for a in meyer_atoms)
    )
    return lattice, meyer


def times_within(lattice, meyer, kind, allowed):
    """The index tuples of the times of `kind` within `allowed`, in walk
    order: the walk of the lattice's tree after a fold of all-zero gains."""
    tree = lattice_module._atom_tree(lattice, meyer, kind)
    return enumeration._walk(tree, enumeration._fold(tree, tree.zero, allowed).flags)


def full_divided_stops(lattice, meyer):
    """Every quadruple (including just-before parts), small instances only."""
    n = lattice.n_paths
    out = []
    for T in enumerate_stopping_times(lattice, meyer, Kind.OPTIONAL):
        if any(isinstance(u, Instant) and u.tag == INT for u in T.assignment):
            continue
        for labels in itertools.product((-1, 0, 1), repeat=n):
            q = DividedQuadruple(
                T=T,
                w_minus=frozenset(p for p in range(n) if labels[p] == -1),
                w=frozenset(p for p in range(n) if labels[p] == 0),
                w_plus=frozenset(p for p in range(n) if labels[p] == 1),
            )
            if validate_divided(lattice, meyer, q).ok:
                out.append(q)
    return out


@pytest.fixture
def reward_walks(monkeypatch) -> list:
    """The processes that `reward_fault` walks, in order: a walk starts with
    the measurability test, which nothing else in `lattice` calls."""
    walked = []
    real = lattice_module.is_measurable

    def counted(lattice, meyer, process, kind):
        walked.append(process)
        return real(lattice, meyer, process, kind)

    monkeypatch.setattr(lattice_module, "is_measurable", counted)
    return walked


@pytest.fixture
def branch():
    """Two equal paths, one branch at epoch 1, fully revealing structure."""
    return build_lattice(
        ["1/2", "1/2"],
        [[[0, 1]], [[0], [1]]],
        [[[0, 1]], [[0], [1]]],
    )


@pytest.fixture
def branch_blind():
    """Same tree but the grid point at epoch 1 is still blind (G_1 trivial)."""
    return build_lattice(
        ["1/2", "1/2"],
        [[[0, 1]], [[0], [1]]],
        [[[0, 1]], [[0, 1]]],
    )


@pytest.fixture
def chain():
    """Single path over two epochs: the deterministic five-instant chain."""
    return build_lattice(["1"], [[[0]], [[0]]], [[[0]], [[0]]])


@pytest.fixture
def three_path():
    """Weights (1/2, 1/4, 1/4); epoch-1 split {0} vs {1,2}, epoch-2 full."""
    return build_lattice(
        ["1/2", "1/4", "1/4"],
        [[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]],
        [[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]],
    )


@pytest.fixture
def three_path_meyer():
    """Same tree with a strictly intermediate Meyer structure at epoch 2."""
    return build_lattice(
        ["1/2", "1/4", "1/4"],
        [[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]],
        [[[0, 1, 2]], [[0, 1, 2]], [[0], [1, 2]]],
    )
