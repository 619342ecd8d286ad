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


def test_the_representation_solve_lists_no_stopping_time():
    # the solve's per-atom minimum is a run of folds; only the signal
    # check's divided-stop listing, from snell, walks stopping times
    tree = ast.parse((PACKAGE / "representation.py").read_text(encoding="utf-8"))
    found = [
        f"representation.py:{node.lineno} imports {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name in ("iter_stopping_index_tuples", "enumerate_stopping_times")
    ]
    assert not found, found


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


def test_each_exact_computation_is_said_once():
    # one integer scaling (`enumeration._scaled`), and the decomposition's
    # jumps read the continuations that `martingale_reach` reads
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "enumeration.py":
            exempt = {id(c) for c in _calls(tree, "lcm", "_scaled")}
        found += [
            f"{path.name}:{c.lineno} calls lcm" for c in _calls(tree, "lcm") if id(c) not in exempt
        ]
        if path.name == "snell.py":
            found += [
                f"snell.py:{c.lineno} calls conditional_expectation in mertens_decompose"
                for c in _calls(tree, "conditional_expectation", "mertens_decompose")
            ]
    assert not found, found


def test_the_once_check_sees_each_duplicate():
    tree = ast.parse(
        "def _scaled(r):\n    return math.lcm(*r)\n"
        "def f(r):\n    return lcm(*r)\n"
        "def mertens_decompose(z):\n    return conditional_expectation(z)\n"
    )
    assert [c.lineno for c in _calls(tree, "lcm")] == [2, 4]
    assert [c.lineno for c in _calls(tree, "lcm", "_scaled")] == [2]
    assert [c.lineno for c in _calls(tree, "conditional_expectation", "mertens_decompose")] == [6]


# Functions of representation.py that may read the rows of g (`.a`, `.b`)
# or mu (`.mass`): the accrual rule, the forward evaluation, the shape checks.
RATE_READERS = ("_accrued", "_forward", "validate_g", "RepresentationProblem.__post_init__")
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
    # cell lines, built by `_accrued` and scaled once per solve and check
    tree = ast.parse((PACKAGE / "representation.py").read_text(encoding="utf-8"))
    found = [f"representation.py:{line} reads a row of g or mu" for line in _rate_reads(tree)]
    found += [
        f"representation.py:{line} calls _scaled repeatedly"
        for line in _repeated_calls(tree, "_scaled")
    ]
    assert not found, found


def test_the_accrual_check_sees_each_read():
    tree = ast.parse(
        "def _accrued(p):\n    return p.g.a, mu.mass\n"
        "def f(problem, g):\n    return problem.mu.mass, g.b, g.power, x.a\n"
        "class RepresentationProblem:\n    def __post_init__(self):\n        self.g.a\n"
        "def h(rows):\n    for r in rows:\n        _scaled(r)\n"
        "    once = _scaled(rows)\n"
        "    return [_scaled(r) for r in rows], lambda: _scaled(once)\n"
    )
    assert _rate_reads(tree) == [4, 4]
    assert _repeated_calls(tree, "_scaled") == [10, 12]


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
        "    yield from _walk(steps, 0, 1)\n"
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
        "        return _walk(steps, 0, 1)\n"
        "    enumeration._check_guard(total, guard)\n"
        "    return inner\n"
        "_check_guard(10, 1)\n"
    )
    assert _guard_findings("m.py", tree) == [
        "m.py:11 checks the guard in value, which lists nothing",
        "m.py:16 checks the guard in outer, which lists nothing",
        "m.py:18 checks the guard at module level",
    ]


# The functions that take a `guard`: each lists stopping times, checks the
# guard before a listing, or hands the guard on to one that lists.
GUARDED = {
    "checks.check_universal_signal",
    "cli._suite_checks",
    "cli.run_command",
    "cli.run_suite",
    "enumeration._check_guard",
    "enumeration.enumerate_stopping_times",
    "enumeration.iter_stopping_index_tuples",
    "representation.universal_signal_check",
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
