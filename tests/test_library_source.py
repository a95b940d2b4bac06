"""Checks on the library's source text. Invariants must not rest on
`assert`, which `python -O` strips: no module of the package holds an
`assert` statement. And every top-level function, class and constant is
used by library code or exported from the package, so a helper left behind
by a refactor fails here."""

import ast
from pathlib import Path

import rrkit

MODULES = sorted(Path(rrkit.__file__).parent.rglob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in MODULES}


def test_modules_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "automata.py", "transducer.py"}


def test_no_assert_statement():
    found = [f"{path.name}:{node.lineno}" for path, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def _defined(stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class, or the
    plain targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _used(stmt) -> set[str]:
    """Names a statement reads, imports or reaches as an attribute."""
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_top_level_name_is_used_or_exported():
    statements = [(path, stmt, _used(stmt)) for path, tree in TREES.items()
                  for stmt in tree.body]
    unused = []
    for path, stmt, _ in statements:
        for name in _defined(stmt):
            if name.startswith("__"):
                continue
            # a name counts as used when some other top-level statement, in
            # any module, names it; an `__init__` import is the export
            if not any(name in used for _, other, used in statements if other is not stmt):
                unused.append(f"{path.name}:{stmt.lineno} {name}")
    assert unused == []
