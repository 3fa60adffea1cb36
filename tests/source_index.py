"""The parsed source trees and the names they load, for the floor tests.

``test_no_uncalled_functions``, ``test_no_write_only_state`` and
``test_no_unset_options`` each hold ``src/`` to a rule that matches by
name across the repository's Python trees.  This module parses the
trees and indexes what a module loads; each test keeps its own rule,
allowlist and messages.  Pytest does not collect it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Module:
    """One parsed file: its path relative to the root, as posix, and its AST."""

    rel: str
    tree: ast.Module


def modules(root: Path, tree: str) -> Iterator[Module]:
    """Every ``*.py`` file under ``root/tree``, parsed, in path order."""
    for path in sorted((root / tree).rglob("*.py")):
        yield Module(
            path.relative_to(root).as_posix(),
            ast.parse(path.read_text(), filename=str(path)),
        )


def attribute_loads(module: ast.AST) -> set[str]:
    """Names loaded as ``x.<name>`` or named in a literal ``getattr``/``hasattr``."""
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


def name_loads(module: ast.AST) -> set[str]:
    """Bare names loaded (``name``)."""
    return {
        node.id
        for node in ast.walk(module)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def is_record_class(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` or a ``NamedTuple`` subclass."""
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if ast.unparse(target) in ("dataclass", "dataclasses.dataclass"):
            return True
    return any(ast.unparse(base) in ("NamedTuple", "typing.NamedTuple") for base in cls.bases)


def record_fields(cls: ast.ClassDef) -> list[ast.AnnAssign]:
    """The annotated names in a record class's body, in order."""
    return [
        stmt
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
