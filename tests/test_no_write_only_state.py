"""Every attribute that ``src/`` stores on ``self`` has a reader.

A value that is written on every allocation, activity or message and
never read costs host time and says nothing.  This test parses ``src/``,
``tests/``, ``benchmarks/`` and ``examples/`` and fails with
``file:line`` for each ``self.<name> = ...`` store in ``src/`` whose
name is never loaded as an attribute (``x.<name>``), nor named in a
literal ``getattr``/``hasattr`` call, anywhere in those trees.

It is a floor, not the whole rule.  It matches by attribute name only,
so a write-only attribute gets past it when another class reads an
attribute of the same name (``uid``, ``started_at``, ``payload``).  A
meter that is only ever called through (``meter.add(...)``) counts as
loaded as well, even if nothing reads its value.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")


def _modules(tree: str):
    for path in sorted((REPO_ROOT / tree).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _loaded_names(module: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.add(node.args[1].value)
    return names


def _self_stores(module: ast.AST):
    for node in ast.walk(module):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.attr, node.lineno


def test_every_self_attribute_in_src_is_read_somewhere():
    loaded: set[str] = set()
    stores: list[tuple[str, Path, int]] = []
    for tree in TREES:
        for path, module in _modules(tree):
            loaded |= _loaded_names(module)
            if tree == "src":
                stores.extend((name, path, line) for name, line in _self_stores(module))
    unread = [
        f"{path.relative_to(REPO_ROOT)}:{line}: self.{name} is never read"
        for name, path, line in stores
        if name not in loaded
    ]
    assert not unread, "write-only attributes:\n" + "\n".join(unread)
