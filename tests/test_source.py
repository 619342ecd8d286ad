"""Source-level invariants of the package."""

from __future__ import annotations

import ast
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
