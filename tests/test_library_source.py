"""Library invariants must not rest on `assert`, which `python -O` strips:
no module of the package holds an `assert` statement."""

import ast
from pathlib import Path

import rrkit

MODULES = sorted(Path(rrkit.__file__).parent.rglob("*.py"))


def test_modules_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "automata.py", "transducer.py"}


def test_no_assert_statement():
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
