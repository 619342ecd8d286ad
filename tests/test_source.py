"""Source-level invariants of the package."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import meyerstop

PACKAGE = Path(meyerstop.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts; invariants raise named errors instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


# Engine modules that handle stopping times only as instant indices, and
# the names of the Instant/TERMINAL edge forms they must not import.
INDEX_MODULES = ("enumeration.py", "snell.py", "checks.py", "representation.py")
EDGE_NAMES = {"Instant", "TERMINAL", "_Terminal", "TimePoint", "AT", "INT"}


def test_engine_reads_time_as_instant_indices():
    # a stopping time holds its index tuple; nothing converts to and from it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and path.name in INDEX_MODULES:
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name in EDGE_NAMES
                ]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "from_indices" or (name == "indices" and isinstance(func, ast.Attribute)):
                    found.append(f"{path.name}:{node.lineno} calls {name}")
    assert not found, found


def test_certificates_and_sandwich_list_no_stopping_time():
    # quantifiers over stopping times are memoized folds; only the divided-
    # stop listing walks them one by one
    found = []
    for name in ("checks.py", "snell.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and name == "checks.py":
                found += [
                    f"{name}:{node.lineno} imports it"
                    for alias in node.names
                    if alias.name == "iter_stopping_index_tuples"
                ]
            elif isinstance(node, ast.FunctionDef) and node.name != "enumerate_divided_stops":
                found += [
                    f"{name}:{call.lineno} calls it in {node.name}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "id", getattr(call.func, "attr", None))
                    == "iter_stopping_index_tuples"
                ]
    assert not found, found


LISTINGS = ("iter_stopping_index_tuples", "enumerate_stopping_times", "enumerate_divided_stops")


def _listing_imports(name: str, tree: ast.AST) -> list[str]:
    """Lines that import a listing of stopping times, in any import form."""
    return [
        f"{name}:{node.lineno} imports {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.rpartition(".")[2] in LISTINGS
    ]


def test_the_representation_solve_lists_no_stopping_time():
    # the solve's per-atom minimum and the signal check's per-level optimum
    # are runs of folds; only the `signal` command lists divided stops
    tree = ast.parse((PACKAGE / "representation.py").read_text(encoding="utf-8"))
    found = _listing_imports("representation.py", tree)
    assert not found, found


def test_the_listing_import_scan_sees_each_form():
    tree = ast.parse(
        "from .snell import PreconditionError, enumerate_divided_stops\n"
        "from .enumeration import _best, iter_stopping_index_tuples as walk\n"
        "from meyerstop.enumeration import enumerate_stopping_times\n"
        "import meyerstop.snell.enumerate_divided_stops\n"
        "from .snell import snell_brute_force\n"
    )
    assert _listing_imports("m.py", tree) == [
        "m.py:1 imports enumerate_divided_stops",
        "m.py:2 imports iter_stopping_index_tuples",
        "m.py:3 imports enumerate_stopping_times",
        "m.py:4 imports meyerstop.snell.enumerate_divided_stops",
    ]


POOL_MODULES = ("multiprocessing", "concurrent", "threading")


def _pool_findings(name: str, tree: ast.AST) -> list[str]:
    """Lines that import a process or thread pool module, or reach os.fork."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                f"{name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.partition(".")[0] in POOL_MODULES
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.partition(".")[0] in POOL_MODULES:
                found.append(f"{name}:{node.lineno} imports {module}")
            elif module == "os" and any(alias.name == "fork" for alias in node.names):
                found.append(f"{name}:{node.lineno} imports os.fork")
        elif isinstance(node, ast.Attribute) and node.attr == "fork":
            if getattr(node.value, "id", None) == "os":
                found.append(f"{name}:{node.lineno} reads os.fork")
    return sorted(found)


def test_no_module_imports_a_pool():
    # the suite's rows and every check run in the calling process
    found = [
        finding
        for path in sorted(PACKAGE.glob("*.py"))
        for finding in _pool_findings(path.name, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


def test_the_pool_check_sees_each_import_form():
    tree = ast.parse(
        "import multiprocessing\nfrom multiprocessing import Pool\n"
        "import concurrent.futures\nfrom concurrent.futures import ThreadPoolExecutor\n"
        "import threading as t\nfrom threading import Thread\n"
        "pid = os.fork()\nfrom os import fork\n"
        "from .lattice import Kind\nimport os, sys\nfrom os import getpid\n"
    )
    assert _pool_findings("m.py", tree) == [
        "m.py:1 imports multiprocessing",
        "m.py:2 imports multiprocessing",
        "m.py:3 imports concurrent.futures",
        "m.py:4 imports concurrent.futures",
        "m.py:5 imports threading",
        "m.py:6 imports threading",
        "m.py:7 reads os.fork",
        "m.py:8 imports os.fork",
    ]


def test_import_loads_no_pool_modules():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import meyerstop; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def _dataclass_imports(name: str, tree: ast.AST) -> list[str]:
    """Lines that import the `dataclasses` module, in any form."""
    lines = {
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses" and not node.level)
    }
    return [f"{name}:{line} imports dataclasses" for line in sorted(lines)]


def test_no_module_imports_dataclasses():
    # the decorator compiles each record's methods at every import and pulls
    # in inspect and ast; records are NamedTuples or `lattice._Record`s
    found = [
        finding
        for path in sorted(PACKAGE.glob("*.py"))
        for finding in _dataclass_imports(path.name, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


def test_the_dataclass_scan_sees_each_import_form():
    tree = ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass\nimport dataclasses as dc\n"
        "import os, dataclasses\nfrom dataclasses import field, replace\n"
        "from typing import NamedTuple\nimport dataclassy\nfrom .dataclasses import x\n"
    )
    assert _dataclass_imports("m.py", tree) == [
        f"m.py:{line} imports dataclasses" for line in range(1, 6)
    ]


def test_import_loads_no_code_generation_modules():
    # every `meyerstop` invocation starts with this import
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import meyerstop; "
        "print(sorted(m for m in sys.modules if m in ('dataclasses', 'inspect', 'ast')))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


# Engine modules that build and read processes as columns; per-path rows
# are the edge forms of scenario parsing and rendering.
COLUMN_MODULES = ("enumeration.py", "projection.py", "snell.py", "representation.py", "checks.py")


def _row_findings(name: str, tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "from_rows":
                found.append(f"{name}:{node.lineno} calls from_rows")
            if getattr(func, "id", None) == "zip" and any(
                isinstance(arg, ast.Starred) for arg in node.args
            ):
                found.append(f"{name}:{node.lineno} transposes with zip(*...)")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "rows"
            # `SignalReport.rows` is the signal table, not a process
            and getattr(node.value, "id", None) not in ("report", "self")
        ):
            found.append(f"{name}:{node.lineno} reads .rows")
    return found


def test_engine_reads_processes_by_column():
    found = [
        finding
        for name in COLUMN_MODULES
        for finding in _row_findings(name, ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
    ]
    assert not found, found


def test_the_column_scan_sees_each_row_form():
    tree = ast.parse("P.from_rows(r)\nzip(*cells)\nzbar.rows[0]\nreport.rows\nzip(a, b)\n")
    assert _row_findings("m.py", tree) == [
        "m.py:1 calls from_rows",
        "m.py:2 transposes with zip(*...)",
        "m.py:3 reads .rows",
    ]


def test_the_signal_root_is_the_only_float():
    # the engine is exact; odd-power g runs on S = L**power, and only the
    # real root of a solved S that has no rational root becomes a float
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and (path.name, fn.name) == ("representation.py", "_root")
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "float"
            and id(node) not in exempt
        ]
    assert not found, found


def _calls(tree: ast.AST, name: str, within: str | None = None) -> list[ast.Call]:
    """The calls of `name` in `tree`, or only those inside functions `within`."""
    scopes = [tree] if within is None else [
        fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == within
    ]
    return [
        node
        for scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


# Engine modules that read P only through `lattice`'s weighted tables.
WEIGHT_FREE = ("enumeration.py", "snell.py", "representation.py")


def _attribute_reads(tree: ast.AST, attr: str) -> list[int]:
    """Lines that read the attribute `attr` of any object."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
    )


# Where the engine conditions: through the atom tree (`lattice._conditioned`)
# only in the projection, the envelope's recursion and the one-step loss
# table that the reach, the supermartingale test and the decomposition all
# read; through the public per-partition `conditional_expectation` only in
# stop/delta's conditional identity, the independent coding of the relaxation.
CONDITIONING = {
    "_conditioned": {
        ("projection.py", "project"),
        ("snell.py", "snell_envelope"),
        ("snell.py", "_losses"),
    },
    "conditional_expectation": {("checks.py", "check_delta")},
}


def _conditioning_findings(name: str, tree: ast.AST) -> list[str]:
    """Calls that condition outside the CONDITIONING functions of module `name`."""
    found = []
    for called, allowed in CONDITIONING.items():
        exempt = {
            id(c) for module, fn in allowed if module == name for c in _calls(tree, called, fn)
        }
        found += [(c.lineno, called) for c in _calls(tree, called) if id(c) not in exempt]
    return [f"{name}:{line} calls {called}" for line, called in sorted(found)]


def _scaling_findings(name: str, tree: ast.AST) -> list[str]:
    """Calls of `_scaled` outside `lattice` and outside the signal check,
    which scales its signal once for its integer level passages."""
    exempt = {id(c) for c in _calls(tree, "_scaled", "universal_signal_check")}
    if name != "representation.py":
        exempt = set()
    return [f"{name}:{c.lineno} calls _scaled" for c in _calls(tree, "_scaled") if id(c) not in exempt]


def test_each_exact_computation_is_said_once():
    # one integer scaling (`lattice._scaled`), called only in `lattice` and
    # by the signal check's levels; P is weighed in `lattice` too
    # (`lattice._weighted`), so no other engine module reads the
    # probabilities; and the engine conditions on the atom tree only in
    # `project`, the envelope's recursion and the one loss table, and calls
    # the per-partition `conditional_expectation` only in stop/delta
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "lattice.py":
            exempt = {id(c) for c in _calls(tree, "lcm", "_scaled")}
        else:
            found += _scaling_findings(path.name, tree)
        found += [
            f"{path.name}:{c.lineno} calls lcm" for c in _calls(tree, "lcm") if id(c) not in exempt
        ]
        if path.name in WEIGHT_FREE:
            found += [
                f"{path.name}:{line} reads probabilities"
                for line in _attribute_reads(tree, "probabilities")
            ]
        found += _conditioning_findings(path.name, tree)
    assert not found, found


def test_the_once_check_sees_each_duplicate():
    tree = ast.parse(
        "def _scaled(r):\n    return math.lcm(*r)\n"
        "def f(r):\n    return lcm(*r)\n"
        "def mertens_decompose(z):\n    return conditional_expectation(z)\n"
        "def snell_envelope(z):\n    return _conditioned(z)\n"
        "def _losses(z):\n    return [lattice._conditioned(c) for c in z]\n"
        "def _continuations(z):\n    return [conditional_expectation(c) for c in z]\n"
        "def project(z):\n    return _conditioned(z), lattice.conditional_expectation(z)\n"
        "def check_delta(z):\n    return conditional_expectation(z)\n"
        "def _first_breaks(z):\n    def inner(c):\n        return lattice_module._conditioned(c)\n"
    )
    assert [c.lineno for c in _calls(tree, "lcm")] == [2, 4]
    assert [c.lineno for c in _calls(tree, "lcm", "_scaled")] == [2]
    assert [c.lineno for c in _calls(tree, "conditional_expectation", "mertens_decompose")] == [6]
    assert [c.lineno for c in _calls(tree, "_conditioned", "_first_breaks")] == [19]
    assert _conditioning_findings("snell.py", tree) == [
        "snell.py:6 calls conditional_expectation",
        "snell.py:12 calls conditional_expectation",
        "snell.py:14 calls _conditioned",
        "snell.py:14 calls conditional_expectation",
        "snell.py:16 calls conditional_expectation",
        "snell.py:19 calls _conditioned",
    ]
    assert _conditioning_findings("projection.py", tree) == [
        "projection.py:6 calls conditional_expectation",
        "projection.py:8 calls _conditioned",
        "projection.py:10 calls _conditioned",
        "projection.py:12 calls conditional_expectation",
        "projection.py:14 calls conditional_expectation",
        "projection.py:16 calls conditional_expectation",
        "projection.py:19 calls _conditioned",
    ]
    assert _conditioning_findings("checks.py", tree) == [
        "checks.py:6 calls conditional_expectation",
        "checks.py:8 calls _conditioned",
        "checks.py:10 calls _conditioned",
        "checks.py:12 calls conditional_expectation",
        "checks.py:14 calls _conditioned",
        "checks.py:14 calls conditional_expectation",
        "checks.py:19 calls _conditioned",
    ]


def test_the_once_check_sees_each_scaling_and_probability_read():
    tree = ast.parse(
        "def f(lattice, rows):\n"
        "    probs = lattice.probabilities\n"
        "    return _scaled(rows), lattice_module._scaled(rows)\n"
        "def g(self):\n"
        "    return [c for c in self.lattice.probabilities]\n"
    )
    assert [c.lineno for c in _calls(tree, "_scaled")] == [3, 3]
    assert _attribute_reads(tree, "probabilities") == [2, 5]
    signal = ast.parse(
        "def universal_signal_check(problem):\n"
        "    return _scaled(problem.solved.columns)\n"
        "def evaluate(S):\n"
        "    return _scaled(S.columns)\n"
    )
    assert _scaling_findings("representation.py", signal) == ["representation.py:4 calls _scaled"]
    assert _scaling_findings("snell.py", signal) == ["snell.py:2 calls _scaled", "snell.py:4 calls _scaled"]


# The constructors of a reward's envelope objects, which the suite calls once per
# reward and hands to the rows that read them.
ENVELOPE_CONSTRUCTORS = ("snell_envelope", "mertens_decompose")


def _constructor_calls(name: str, tree: ast.AST) -> list[str]:
    """Lines that call an envelope constructor, by name or as an attribute."""
    return [
        f"{name}:{call.lineno} calls {constructor}"
        for constructor in ENVELOPE_CONSTRUCTORS
        for call in sorted(_calls(tree, constructor), key=lambda c: c.lineno)
    ]


def test_the_checks_read_the_envelope_the_suite_built():
    # each row, stop and certificate verifies or reads the envelope and
    # decomposition it is given; building them there would repeat the
    # caller's work once per call
    found = [
        finding
        for name in ("checks.py", "snell.py")
        for finding in _constructor_calls(
            name, ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        )
    ]
    assert not found, found


def test_the_constructor_scan_sees_each_form():
    tree = ast.parse(
        "def check(lattice, meyer, z):\n"
        "    zbar = snell_envelope(lattice, meyer, z)\n"
        "    d = snell.mertens_decompose(lattice, meyer, zbar)\n"
        "    return lambda: snell_envelope(lattice, meyer, d.m)\n"
        "build = mertens_decompose\n"
        "envelope(lattice, z, side)\n"
    )
    assert _constructor_calls("m.py", tree) == [
        "m.py:2 calls snell_envelope",
        "m.py:4 calls snell_envelope",
        "m.py:3 calls mertens_decompose",
    ]


def _unread_parameters(name: str, tree: ast.AST) -> list[str]:
    """Lines that define a function with a parameter its body never reads;
    the `self` or `cls` of a method is exempt, and so are lambdas."""
    methods = {
        id(fn)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if id(fn) in methods and params[0] is not None and params[0].arg in ("self", "cls"):
            params = params[1:]
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            (fn.lineno, f"{name}:{fn.lineno} {fn.name} never reads {arg.arg}")
            for arg in params
            if arg is not None and arg.arg not in read
        ]
    return [finding for _, finding in sorted(found)]


def test_every_parameter_is_read():
    # a parameter that no line reads is a knob that does nothing, and every
    # caller must still pass it
    found = [
        finding
        for path in sorted(PACKAGE.glob("*.py"))
        for finding in _unread_parameters(path.name, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


def test_the_unread_parameter_scan_sees_each_form():
    tree = ast.parse(
        "def entry(lattice, meyer, zbar):\n    return lattice, zbar\n"
        "def only(a, /, b):\n    return b\n"
        "def keyword(a, *, flag=None):\n    return a\n"
        "def rest(*args, **kwargs):\n    return args\n"
        "async def later(x):\n    pass\n"
        "class C:\n"
        "    def method(self, unused):\n        return 1\n"
        "    def read(self, y):\n        return y\n"
        "def outer(a, b):\n"
        "    def inner(c):\n        return a\n"
        "    return lambda: inner(b)\n"
        "def plain(self):\n    return 0\n"
        "quick = lambda unused: 0\n"
    )
    assert _unread_parameters("m.py", tree) == [
        "m.py:1 entry never reads meyer",
        "m.py:3 only never reads a",
        "m.py:5 keyword never reads flag",
        "m.py:7 rest never reads kwargs",
        "m.py:9 later never reads x",
        "m.py:12 method never reads unused",
        "m.py:17 inner never reads c",
        "m.py:20 plain never reads self",
    ]


# Functions of representation.py that may read the rows of g (`.a`, `.b`)
# or mu (`.mass`): the accrual rule, which the forward evaluation reads too,
# and the checks of shapes, rates and measurability.
RATE_READERS = ("_accrued", "validate_g", "RepresentationProblem.__post_init__")
REPEATING = (
    ast.For,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.FunctionDef,
    ast.Lambda,
)


def _top_functions(tree: ast.Module):
    """(qualified name, node) of the module's functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            methods = [fn for fn in node.body if isinstance(fn, ast.FunctionDef)]
            yield from ((f"{node.name}.{fn.name}", fn) for fn in methods)


def _rate_reads(tree: ast.Module) -> list[int]:
    """Lines that read a row of g or mu outside `RATE_READERS`."""
    exempt = {
        id(node)
        for name, fn in _top_functions(tree)
        if name in RATE_READERS
        for node in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("a", "b", "mass")
        and getattr(node.value, "id", getattr(node.value, "attr", None)) in ("g", "mu")
        and id(node) not in exempt
    )


def _repeated_calls(tree: ast.Module, name: str) -> list[int]:
    """Lines that call `name` inside a loop, a comprehension or a nested function."""
    tops = {id(fn) for _, fn in _top_functions(tree)}
    return sorted(
        {
            call.lineno
            for node in ast.walk(tree)
            if isinstance(node, REPEATING) and id(node) not in tops
            for call in _calls(node, name)
        }
    )


def test_one_accrual_rule_scaled_once():
    # the solve, `stopping_value` and the signal check read one table of
    # cell lines, built by `_accrued` and weighted once per solve and check
    tree = ast.parse((PACKAGE / "representation.py").read_text(encoding="utf-8"))
    found = [f"representation.py:{line} reads a row of g or mu" for line in _rate_reads(tree)]
    found += [
        f"representation.py:{line} calls _weighted repeatedly"
        for line in _repeated_calls(tree, "_weighted")
    ]
    assert not found, found


def test_the_accrual_check_sees_each_read():
    tree = ast.parse(
        "def _accrued(p):\n    return p.g.a, mu.mass\n"
        "def f(problem, g):\n    return problem.mu.mass, g.b, g.power, x.a\n"
        "class RepresentationProblem:\n    def __post_init__(self):\n        self.g.a\n"
        "def h(rows):\n    for r in rows:\n        _weighted(r)\n"
        "    once = _weighted(rows)\n"
        "    return [_weighted(r) for r in rows], lambda: _weighted(once)\n"
    )
    assert _rate_reads(tree) == [4, 4]
    assert _repeated_calls(tree, "_weighted") == [10, 12]


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _looped_calls(tree: ast.AST, name: str) -> list[int]:
    """Lines that call `name` inside a loop or a comprehension."""
    return sorted(
        {
            call.lineno
            for node in ast.walk(tree)
            if isinstance(node, LOOPS)
            for call in _calls(node, name)
        }
    )


def _fold_findings(name: str, tree: ast.Module) -> list[str]:
    """Calls of the fold in a loop, and the functions that call it."""
    found = [f"{name}:{line} calls _fold in a loop" for line in _looped_calls(tree, "_fold")]
    return found + [f"{fn_name} calls _fold" for fn_name, fn in _top_functions(tree) for _ in _calls(fn, "_fold")]


def test_the_solve_runs_no_fold_per_atom():
    # one hull pass reads every atom's root, so no loop in representation.py
    # calls the fold; its one call is the signal check's fold per level
    tree = ast.parse((PACKAGE / "representation.py").read_text(encoding="utf-8"))
    found = _fold_findings("representation.py", tree)
    assert found == ["universal_signal_check calls _fold"], found


def test_the_fold_scan_sees_each_loop():
    tree = ast.parse(
        "for u in r:\n    _fold(t, s)\n"
        "while r:\n    enumeration._fold(t, s)\n"
        "x = [_fold(t, s) for _ in r], {u: _fold(t, s) for u in r}\n"
        "def f(t, s):\n    return _fold(t, s)\n"
        "class C:\n    def g(self, t):\n        return _fold(t, t.zero, None)\n"
    )
    assert _looped_calls(tree, "_fold") == [2, 4, 5]
    assert _fold_findings("m.py", tree) == [
        "m.py:2 calls _fold in a loop",
        "m.py:4 calls _fold in a loop",
        "m.py:5 calls _fold in a loop",
        "f calls _fold",
        "C.g calls _fold",
    ]


def _is_branch(node: ast.AST, command: str) -> bool:
    """`node` is the branch `if command == "<command>":`."""
    test = getattr(node, "test", None)
    return (
        isinstance(node, ast.If)
        and isinstance(test, ast.Compare)
        and getattr(test.left, "id", None) == "command"
        and [getattr(c, "value", None) for c in test.comparators] == [command]
    )


def _forward_calls(name: str, tree: ast.Module) -> list[str]:
    """Lines that call forward_evaluate outside `RepresentationProblem.reward`
    and the body of `run_command`'s `represent` branch."""
    allowed = set()
    for qualname, fn in _top_functions(tree):
        scopes = [fn] if qualname == "RepresentationProblem.reward" else []
        if qualname == "run_command":
            branches = [node for node in ast.walk(fn) if _is_branch(node, "represent")]
            scopes = [stmt for branch in branches for stmt in branch.body]
        allowed |= {id(call) for scope in scopes for call in _calls(scope, "forward_evaluate")}
    return [
        f"{name}:{call.lineno} calls forward_evaluate"
        for call in sorted(_calls(tree, "forward_evaluate"), key=lambda c: c.lineno)
        if id(call) not in allowed
    ]


def test_a_problem_evaluates_its_reward_once():
    # a bundle given by L has one reward, which the problem evaluates and
    # keeps; every reader takes it from there, and only `represent` reports
    # the forward direction itself
    found = [
        finding
        for path in sorted(PACKAGE.glob("*.py"))
        for finding in _forward_calls(path.name, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, found


def test_the_forward_scan_sees_each_form():
    tree = ast.parse(
        "class RepresentationProblem:\n"
        "    def reward(self):\n        return forward_evaluate(self)\n"
        "    def lines(self):\n        return forward_evaluate(self)\n"
        "def run_command(command, problem):\n"
        "    if command == 'represent':\n"
        "        return representation.forward_evaluate(problem)\n"
        "    if command == 'signal':\n        return forward_evaluate(problem)\n"
        "    return lambda: forward_evaluate(problem)\n"
        "def stopping_value(problem):\n    return rep.forward_evaluate(problem)\n"
        "def reward(problem):\n    return forward_evaluate(problem)\n"
    )
    assert _forward_calls("m.py", tree) == [
        "m.py:5 calls forward_evaluate",
        "m.py:10 calls forward_evaluate",
        "m.py:11 calls forward_evaluate",
        "m.py:13 calls forward_evaluate",
        "m.py:15 calls forward_evaluate",
    ]


def _is_empty_dict(node: ast.AST) -> bool:
    return (isinstance(node, ast.Dict) and not node.keys) or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict" and not node.args
    )


def _subset_findings(name: str, tree: ast.AST) -> list[str]:
    """Lines that run over all subsets of a list, or keep one memo per
    instant keyed by masks of active paths."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift):
            if getattr(getattr(node.right, "func", None), "id", None) == "len":
                found.append(f"{name}:{node.lineno} shifts by a length")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range":
            shifts = [arg for arg in node.args if isinstance(arg, ast.BinOp)]
            if any(isinstance(arg.op, ast.LShift) for arg in shifts):
                found.append(f"{name}:{node.lineno} ranges over a power of two")
        elif isinstance(node, ast.ListComp) and _is_empty_dict(node.elt):
            found.append(f"{name}:{node.lineno} keeps a memo per instant")
        elif isinstance(node, ast.List) and any(_is_empty_dict(elt) for elt in node.elts):
            found.append(f"{name}:{node.lineno} keeps a memo per instant")
    return sorted(found)


def test_enumeration_lists_no_subsets():
    # each (instant, part) node decides alone: stop whole or pass on, so no
    # step lists the subsets of a state's parts nor memoizes per state
    name = "enumeration.py"
    found = _subset_findings(name, ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
    assert not found, found


def test_the_subset_check_sees_each_form():
    tree = ast.parse(
        "for c in range(1, 1 << len(parts)):\n    pass\n"
        "subsets = range(1 << k)\n"
        "top = 1 << len(xs)\n"
        "memo = [{} for _ in range(n)]\n"
        "memo = [dict() for _ in range(n)]\n"
        "memo = [{}] * n\n"
        "full = (1 << n) - 1\n"
        "table = {(i, m): v for i, m in x}\n"
        "rows = [dict(a) for a in x]\n"
    )
    assert _subset_findings("m.py", tree) == [
        "m.py:1 ranges over a power of two",
        "m.py:1 shifts by a length",
        "m.py:3 ranges over a power of two",
        "m.py:4 shifts by a length",
        "m.py:5 keeps a memo per instant",
        "m.py:6 keeps a memo per instant",
        "m.py:7 keeps a memo per instant",
    ]


# The calls that start a walk over stopping times, one of which must share
# a function with each check of the enumeration guard.
WALKS = {"_walk", "maximizers", "iter_stopping_index_tuples"}


def _own_calls(scope: ast.AST) -> list[ast.Call]:
    """The calls in `scope`, outside the functions defined inside it."""
    calls, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        todo.extend(ast.iter_child_nodes(node))
    return calls


def _guard_findings(name: str, tree: ast.Module) -> list[str]:
    """Lines that check the guard outside a function that starts a walk."""
    found = []
    for scope in [tree, *(fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef))]:
        calls = {c: getattr(c.func, "id", getattr(c.func, "attr", None)) for c in _own_calls(scope)}
        if scope is tree or not set(calls.values()) & WALKS:
            where = "at module level" if scope is tree else f"in {scope.name}, which lists nothing"
            found += [
                f"{name}:{c.lineno} checks the guard {where}"
                for c, called in calls.items()
                if called == "_check_guard"
            ]
    return sorted(found)


def test_the_guard_bounds_only_walks():
    # a fold reads a value or a count at any size; the guard is checked
    # only where a walk starts, against the number of times it will list
    found = [
        finding
        for path in sorted(PACKAGE.glob("*.py"))
        for finding in _guard_findings(path.name, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


def test_the_guard_scan_sees_each_form():
    tree = ast.parse(
        "def listing(steps, total, guard):\n"
        "    _check_guard(total, guard)\n"
        "    yield from _walk(steps)\n"
        "def optimizers(opt, guard):\n"
        "    _check_guard(opt.ways, guard)\n"
        "    return sorted(opt.maximizers())\n"
        "def times(lattice, meyer, total, guard):\n"
        "    _check_guard(total, guard)\n"
        "    return iter_stopping_index_tuples(lattice, meyer)\n"
        "def value(opt, guard):\n"
        "    _check_guard(opt.total, guard)\n"
        "    return opt.value\n"
        "def outer(steps, total, guard):\n"
        "    def inner():\n"
        "        return _walk(steps)\n"
        "    enumeration._check_guard(total, guard)\n"
        "    return inner\n"
        "_check_guard(10, 1)\n"
    )
    assert _guard_findings("m.py", tree) == [
        "m.py:11 checks the guard in value, which lists nothing",
        "m.py:16 checks the guard in outer, which lists nothing",
        "m.py:18 checks the guard at module level",
    ]


def _entry_findings(name: str, tree: ast.Module) -> list[str]:
    """Calls that could enter the stopping-time tree below its root: `_fold`
    with more than (tree, gains, allowed), `_walk` with other than (tree,
    flags), and any `.parts(` call."""
    found = []
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    for call in sorted(calls, key=lambda c: c.lineno):
        called = getattr(call.func, "id", getattr(call.func, "attr", None))
        count = len(call.args) + len(call.keywords)
        if called == "_fold" and not 2 <= count <= 3 or called == "_walk" and count != 2:
            found.append(f"{name}:{call.lineno} calls {called} with {count} arguments")
        elif called == "parts" and isinstance(call.func, ast.Attribute):
            found.append(f"{name}:{call.lineno} calls .parts")
    return found


def test_every_fold_and_walk_enters_the_tree_at_its_root():
    # the decision tree is entered only at its root nodes; a restriction is
    # the `allowed` table a fold reads, and a walk follows one fold's flags
    found = [
        finding
        for path in sorted(PACKAGE.glob("*.py"))
        for finding in _entry_findings(path.name, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


def test_the_root_entry_scan_sees_each_form():
    tree = ast.parse(
        "_fold(tree, gains), _fold(tree, gains, allowed), enumeration._fold(tree, g, allowed=a)\n"
        "enumeration._fold(tree, gains, allowed, 7)\n"
        "_fold(tree)\n"
        "_walk(tree, flags), enumeration._walk(tree, flags=fold.flags)\n"
        "enumeration._walk(tree, flags, 3)\n"
        "_walk(tree)\n"
        "tree.parts(0, everyone)\n"
        "parts(0, 1), '1,2'.partition(','), text.split()\n"
    )
    assert _entry_findings("m.py", tree) == [
        "m.py:2 calls _fold with 4 arguments",
        "m.py:3 calls _fold with 1 arguments",
        "m.py:5 calls _walk with 3 arguments",
        "m.py:6 calls _walk with 1 arguments",
        "m.py:7 calls .parts",
    ]


def _tree_builds(name: str, tree: ast.Module) -> list[str]:
    """Constructions of the atom tree, and reads of the lattice's tree cache,
    other than the per-lattice cache's own, `lattice._atom_tree`; the cache
    also keeps `lattice.validate_lattice`'s reports, which may read it."""
    exempt = keeper = set()
    if name == "lattice.py":
        exempt = {id(node) for fn in _functions(tree, "_atom_tree") for node in ast.walk(fn)}
        keeper = {id(node) for fn in _functions(tree, "validate_lattice") for node in ast.walk(fn)}
    found = [(c.lineno, "builds an _AtomTree") for c in _calls(tree, "_AtomTree") if id(c) not in exempt]
    found += [
        (node.lineno, "reads ._trees")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_trees"
        and id(node) not in exempt | keeper
    ]
    return [f"{name}:{line} {what}" for line, what in sorted(found)]


def _functions(tree: ast.AST, name: str) -> list[ast.FunctionDef]:
    return [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == name]


def test_every_tree_comes_from_the_lattice_cache():
    # one atom tree per (lattice, meyer, kind): every fold, count, walk, hull
    # pass and conditioning reads the tree `lattice._atom_tree` keeps on the
    # lattice, and nothing else reads or fills that cache
    found = [
        finding
        for path in sorted(PACKAGE.glob("*.py"))
        for finding in _tree_builds(path.name, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


def test_the_tree_build_scan_sees_each_form():
    source = (
        "def _atom_tree(lattice, meyer, kind):\n"
        "    tree = lattice._trees.get((meyer, kind))\n"
        "    return tree or _AtomTree(lattice, meyer, kind)\n"
        "def solve(lattice, meyer):\n"
        "    return lattice_module._AtomTree(lattice, meyer, Kind.LAMBDA)\n"
        "steps = _AtomTree(lattice, meyer, kind)\n"
        "def _conditioned(lattice, meyer, kind):\n"
        "    return lattice._trees[meyer, kind]\n"
        "def validate_lattice(lattice, meyer):\n"
        "    report = lattice._trees.get(meyer)\n"
        "    return report or _AtomTree(lattice, meyer, kind)\n"
    )
    assert _tree_builds("lattice.py", ast.parse(source)) == [
        "lattice.py:5 builds an _AtomTree",
        "lattice.py:6 builds an _AtomTree",
        "lattice.py:8 reads ._trees",
        "lattice.py:11 builds an _AtomTree",
    ]
    assert _tree_builds("enumeration.py", ast.parse(source)) == [
        "enumeration.py:2 reads ._trees",
        "enumeration.py:3 builds an _AtomTree",
        "enumeration.py:5 builds an _AtomTree",
        "enumeration.py:6 builds an _AtomTree",
        "enumeration.py:8 reads ._trees",
        "enumeration.py:10 reads ._trees",
        "enumeration.py:11 builds an _AtomTree",
    ]


# The engine reads a kind's atoms off its atom tree.  `field_partitions` is
# read only where order or independence matters: the tree build, the
# generator (whose draws follow the fields in order) and the independent
# codings of projection/duality and of the right USC form.
FIELD_READERS = {
    ("lattice.py", "_AtomTree.__init__"),
    ("scenario.py", "generate_instance"),
    ("checks.py", "check_projection_duality"),
    ("projection.py", "check_usc_sequence_equivalence"),
}
# What an atom tree build must not do again: its lattice passed validate_lattice.
TREE_CHECKS = ("_owners", "validate_lattice", "_structure_problems", "is_union_of_atoms")


def _field_reads(name: str, tree: ast.Module) -> list[str]:
    """Reads of `field_partitions` outside the functions `FIELD_READERS` names."""
    exempt = {
        id(node)
        for qualified, fn in _top_functions(tree)
        if (name, qualified) in FIELD_READERS
        for node in ast.walk(fn)
    }
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and getattr(node, "id", getattr(node, "attr", None)) == "field_partitions"
        and id(node) not in exempt
    )
    return [f"{name}:{line} reads field_partitions" for line in lines]


def _tree_check_findings(name: str, tree: ast.Module) -> list[str]:
    """Partition or refinement checks, and raises, inside `_AtomTree`."""
    found = [
        (node.lineno, f"calls {check}" if check else "raises")
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "_AtomTree"
        for check in (*TREE_CHECKS, None)
        for node in (_calls(cls, check) if check else ast.walk(cls))
        if check or isinstance(node, ast.Raise)
    ]
    return [f"{name}:{line} _AtomTree {what}" for line, what in sorted(found)]


def test_atoms_are_read_off_the_tree_and_checked_once():
    # is_measurable, is_lambda_stopping_time, field_at_time, section_witness
    # and validate_g read tree nodes; the tree build only numbers atoms, as
    # validate_lattice's kept report vouches for the fields
    found = [
        finding
        for path in sorted(PACKAGE.glob("*.py"))
        for tree in [ast.parse(path.read_text(encoding="utf-8"))]
        for finding in _field_reads(path.name, tree) + _tree_check_findings(path.name, tree)
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


def test_the_field_and_tree_check_scans_see_each_form():
    source = (
        "class _AtomTree:\n"
        "    def __init__(self, lattice, meyer, kind):\n"
        "        fields = field_partitions(lattice, meyer, kind)\n"
        "        owners = [_owners(part, n) for part in fields]\n"
        "        lattice_module.validate_lattice(lattice, meyer)\n"
        "        def inner():\n"
        "            return _structure_problems(lattice, meyer) or is_union_of_atoms(s, p)\n"
        "        raise LatticeError('does not refine')\n"
        "def generate_instance(params):\n"
        "    def per_atom(kind):\n"
        "        return lattice.field_partitions(lattice, meyer, kind)\n"
        "def is_measurable(lattice, meyer, process, kind):\n"
        "    fields = [*map(field_partitions, [lattice]), _owners(part, n)]\n"
        "    read = field_partitions\n"
    )
    assert _field_reads("lattice.py", ast.parse(source)) == [
        "lattice.py:11 reads field_partitions",
        "lattice.py:13 reads field_partitions",
        "lattice.py:14 reads field_partitions",
    ]
    assert _field_reads("scenario.py", ast.parse(source)) == [
        "scenario.py:3 reads field_partitions",
        "scenario.py:13 reads field_partitions",
        "scenario.py:14 reads field_partitions",
    ]
    assert _tree_check_findings("lattice.py", ast.parse(source)) == [
        "lattice.py:4 _AtomTree calls _owners",
        "lattice.py:5 _AtomTree calls validate_lattice",
        "lattice.py:7 _AtomTree calls _structure_problems",
        "lattice.py:7 _AtomTree calls is_union_of_atoms",
        "lattice.py:8 _AtomTree raises",
    ]


# The functions that take a `guard`: each lists stopping times, checks the
# guard before a listing, or hands the guard on to one that lists.
GUARDED = {
    "cli.run_command",
    "enumeration._check_guard",
    "enumeration.enumerate_stopping_times",
    "enumeration.iter_stopping_index_tuples",
    "snell.enumerate_divided_stops",
    "snell.snell_brute_force",
}


def _guard_parameters(name: str, tree: ast.AST) -> set[str]:
    """module.function for each function of `tree` with a `guard` parameter."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return {
        f"{name.removesuffix('.py')}.{getattr(fn, 'name', '<lambda>')}"
        for fn in ast.walk(tree)
        if isinstance(fn, functions)
        for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
        if arg.arg == "guard"
    }


def test_only_listings_take_a_guard():
    # a fold reads a value, a count or a witness at any size, so a function
    # that only folds has no guard to take
    found = set().union(
        *(
            _guard_parameters(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))
        )
    )
    assert found == GUARDED, sorted(found ^ GUARDED)


def test_the_guard_parameter_scan_sees_each_form():
    tree = ast.parse(
        "def listing(steps, guard):\n    pass\n"
        "def keyword(steps, *, guard=None):\n    pass\n"
        "def only(guard, /):\n    pass\n"
        "async def later(guard=1):\n    pass\n"
        "class C:\n    def method(self, guard):\n        pass\n"
        "def outer():\n    def inner(guard):\n        pass\n"
        "quick = lambda guard: guard\n"
        "def other(guards, guarded, **guard_kw):\n    return guard\n"
    )
    assert _guard_parameters("m.py", tree) == {
        "m.listing",
        "m.keyword",
        "m.only",
        "m.later",
        "m.method",
        "m.inner",
        "m.<lambda>",
    }


def _try_findings(name: str, tree: ast.Module, function: str) -> list[str]:
    """Lines of a `try` in the named function or in a function nested in it."""
    tries = [
        node
        for top, fn in _top_functions(tree)
        if top == function
        for node in ast.walk(fn)
        if isinstance(node, ast.Try)
    ]
    tries.sort(key=lambda node: node.lineno)
    return [f"{name}:{node.lineno} catches in {function}" for node in tries]


def test_the_suite_catches_nothing():
    # every row reports a SKIP as a `SKIP:` message, so the suite has no
    # exception to turn into a row; an error that a row raises ends it
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = _try_findings("cli.py", tree, "run_suite")
    assert not found, found


def test_the_try_scan_sees_each_form():
    tree = ast.parse(
        "def run_suite(items):\n"
        "    try:\n        pass\n    except ValueError:\n        pass\n"
        "    def run_one(item):\n"
        "        try:\n            return item()\n        finally:\n            pass\n"
        "    return [run_one(i) for i in items]\n"
        "def other():\n    try:\n        pass\n    except ValueError:\n        pass\n"
    )
    assert _try_findings("m.py", tree, "run_suite") == [
        "m.py:2 catches in run_suite",
        "m.py:7 catches in run_suite",
    ]


def _local_imports(name: str, tree: ast.AST) -> list[str]:
    """Lines that import inside a function, lambda bodies aside."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    lines = {
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, functions)
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"{name}:{line} imports inside a function" for line in sorted(lines)]


def test_imports_are_at_module_level():
    # every module states what it uses at its top; none of the package's
    # modules import each other in a cycle that would call for a late import
    found = [
        finding
        for path in sorted(PACKAGE.glob("*.py"))
        for finding in _local_imports(path.name, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


def test_the_import_scan_sees_each_form():
    tree = ast.parse(
        "import os\nfrom .lattice import Kind\n"
        "if TYPE_CHECKING:\n    from .snell import Stop\n"
        "def f():\n    import json\n    from .lattice import Kind\n"
        "class C:\n    def method(self):\n        from . import checks\n"
        "def outer():\n    def inner():\n        import sys\n    return inner\n"
        "async def later():\n    import math\n"
    )
    assert _local_imports("m.py", tree) == [
        "m.py:6 imports inside a function",
        "m.py:7 imports inside a function",
        "m.py:10 imports inside a function",
        "m.py:13 imports inside a function",
        "m.py:16 imports inside a function",
    ]


# `reward_fault` keeps its answer in the process's instance dict under this
# name; nothing else reads, writes or reaches into that dict.
KEPT_ANSWER = "_rewards"


def _answer_findings(name: str, tree: ast.AST) -> list[str]:
    """Reads and writes of the kept reward answer, by name, string, `vars`
    or `__dict__`, outside `lattice.reward_fault`."""
    exempt = set()
    if name == "lattice.py":
        exempt = {id(node) for fn in _functions(tree, "reward_fault") for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        said = getattr(node, "id", getattr(node, "attr", getattr(node, "value", None)))
        if isinstance(node, (ast.Name, ast.Attribute, ast.Constant)) and said == KEPT_ANSWER:
            found.append((node.lineno, f"touches {KEPT_ANSWER}"))
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append((node.lineno, "reads __dict__"))
    found += [(c.lineno, "calls vars") for c in _calls(tree, "vars") if id(c) not in exempt]
    return [f"{name}:{line} {what}" for line, what in sorted(found)]


def _usc_twins(name: str, tree: ast.AST) -> list[str]:
    """Private functions, methods or module names that carry a USC check
    beside the public predicates: any name that starts with `_` and says usc."""
    defined = [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    defined += [
        (target.lineno, target.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    ]
    return [
        f"{name}:{line} defines {what}"
        for line, what in sorted(defined)
        if what.startswith("_") and "usc" in what.lower()
    ]


def test_a_process_is_tested_as_a_reward_through_one_door():
    # only `reward_fault` keeps and reads a process's reward answer, and the
    # USC predicates are the public ones, which test their input through it
    found = [
        finding
        for path in sorted(PACKAGE.glob("*.py"))
        for tree in [ast.parse(path.read_text(encoding="utf-8"))]
        for finding in _answer_findings(path.name, tree) + _usc_twins(path.name, tree)
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


def test_the_kept_answer_and_twin_scans_see_each_form():
    source = (
        "def reward_fault(lattice, meyer, process):\n"
        "    return vars(process).setdefault('_rewards', {})\n"
        "def is_right_usc_in_expectation(lattice, meyer, process):\n"
        "    return process._rewards or _right_usc(lattice, meyer, process)\n"
        "def stale(process):\n"
        "    return process.__dict__['_rewards']\n"
        "_rewards = {}\n"
        "def _right_usc(lattice, meyer, process):\n"
        "    pass\n"
        "class Checker:\n"
        "    def _left_usc_core(self):\n"
        "        def _usc():\n"
        "            pass\n"
        "async def _USC_async():\n"
        "    pass\n"
        "_left_usc = is_left_usc_in_expectation\n"
        "def check_usc_sequence_equivalence(lattice, meyer, process):\n"
        "    return is_left_usc_in_expectation(lattice, meyer, process)\n"
    )
    tree = ast.parse(source)
    assert _answer_findings("lattice.py", tree) == [
        "lattice.py:4 touches _rewards",
        "lattice.py:6 reads __dict__",
        "lattice.py:6 touches _rewards",
        "lattice.py:7 touches _rewards",
    ]
    assert _answer_findings("snell.py", tree) == [
        "snell.py:2 calls vars",
        "snell.py:2 touches _rewards",
        "snell.py:4 touches _rewards",
        "snell.py:6 reads __dict__",
        "snell.py:6 touches _rewards",
        "snell.py:7 touches _rewards",
    ]
    assert _usc_twins("projection.py", tree) == [
        "projection.py:8 defines _right_usc",
        "projection.py:11 defines _left_usc_core",
        "projection.py:12 defines _usc",
        "projection.py:14 defines _USC_async",
        "projection.py:16 defines _left_usc",
    ]
