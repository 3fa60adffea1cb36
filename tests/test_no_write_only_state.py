"""Every attribute and record field that ``src/`` stores has a reader.

A value that is written on every allocation, activity or message and
never read costs host time and says nothing.  This test parses ``src/``,
``tests/``, ``benchmarks/`` and ``examples/`` and fails with
``file:line`` for each store in ``src/`` whose name is never loaded as
an attribute (``x.<name>``), nor named in a literal ``getattr``/
``hasattr`` call, anywhere in those trees.  A store is a
``self.<name> = ...`` assignment, or an annotated name in the body of a
``@dataclass`` or ``NamedTuple`` class: a field.

It is a floor, not the whole rule.  It matches by attribute name only,
so a write-only attribute gets past it when another class reads an
attribute of the same name (``uid``, ``started_at``, ``payload``).  A
meter that is only ever called through (``meter.add(...)``) counts as
loaded as well, even if nothing reads its value.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tests.source_index import REPO_ROOT, attribute_loads, is_record_class, modules, record_fields

TREES = ("src", "tests", "benchmarks", "examples")


def _stores(module: ast.AST):
    """(shown name, attribute name, line) of each self attribute and field."""
    for node in ast.walk(module):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield f"self.{node.attr}", node.attr, node.lineno
        elif isinstance(node, ast.ClassDef) and is_record_class(node):
            for stmt in record_fields(node):
                name = stmt.target.id
                yield f"{node.name}.{name}", name, stmt.lineno


def scan(root: Path) -> tuple[list[str], int]:
    """(stores in ``src/`` that nothing reads, number of fields scanned)."""
    loaded: set[str] = set()
    stores: list[tuple[str, str, str, int]] = []
    for tree in TREES:
        for module in modules(root, tree):
            loaded |= attribute_loads(module.tree)
            if tree == "src":
                stores.extend((module.rel, *store) for store in _stores(module.tree))
    unread = [
        f"{rel}:{line}: {shown} is never read"
        for rel, shown, name, line in sorted(stores, key=lambda store: (store[0], store[3]))
        if name not in loaded
    ]
    fields = sum(1 for _, shown, _, _ in stores if not shown.startswith("self."))
    return unread, fields


def test_every_self_attribute_in_src_is_read_somewhere():
    unread, _ = scan(REPO_ROOT)
    attributes = [line for line in unread if ": self." in line]
    assert not attributes, "write-only attributes:\n" + "\n".join(attributes)


def test_every_record_field_in_src_is_read_somewhere():
    unread, _ = scan(REPO_ROOT)
    fields = [line for line in unread if ": self." not in line]
    assert not fields, "write-only fields:\n" + "\n".join(fields)


def test_scan_names_a_planted_write_only_attribute_and_field(tmp_path):
    for tree in TREES:
        (tmp_path / tree).mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.kept = 1\n"
        "        self.lost = 2\n"
        "@dataclass\n"
        "class Spec:\n"
        "    used: int\n"
        "    unused: int = 0\n"
        "class Pair(NamedTuple):\n"
        "    left: int\n"
        "    right: int\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "def test(box, spec, pair):\n"
        "    assert box.kept and spec.used and getattr(pair, 'left')\n"
    )
    unread, fields = scan(tmp_path)
    assert unread == [
        "src/mod.py:6: self.lost is never read",
        "src/mod.py:10: Spec.unused is never read",
        "src/mod.py:13: Pair.right is never read",
    ]
    assert fields == 4
