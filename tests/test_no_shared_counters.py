"""No id counter in ``src/`` outlives a run.

An ``itertools.count()`` assigned at module or class level is shared by
every run the process executes, so the ids it mints depend on what ran
before.  A run's ids come from ``Environment.new_id``.  This test parses
``src/`` and fails with ``file:line`` for each ``count()`` assigned
outside any function body.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _shared_counts(node: ast.AST):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        value = getattr(child, "value", None)
        if (
            isinstance(child, (ast.Assign, ast.AnnAssign))
            and isinstance(value, ast.Call)
            and ast.unparse(value.func) in ("itertools.count", "count")
        ):
            yield child.lineno
        yield from _shared_counts(child)


def test_no_module_or_class_level_counters_in_src():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: count() shared by every run"
        for path in sorted(SRC.rglob("*.py"))
        for line in _shared_counts(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, "process-wide counters:\n" + "\n".join(found)
