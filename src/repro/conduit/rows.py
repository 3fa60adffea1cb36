"""Fixed-shape samples as rows against a schema declared once.

Most monitoring samples have the same leaves every time: the /proc
sample of Listing 2, a TAU rank profile, a facility batch.  Such a
source declares a :class:`Schema` once, a fixed head path and the leaf
paths below ``<head>/<key>`` in tree order, and then publishes each
sample as a row ``(schema, key, values)``.  The row's tree is the one
that setting ``<head>/<key>/<leaf> = value`` for each leaf in order
builds, and a list of rows stands for the tree that setting every row
in turn builds, so rows sharing a key prefix merge under it.

A row is sized without that tree (:func:`rows_nbytes`, the same sum
:meth:`Node.nbytes` takes over the tree's leaves), and a SOMA store
keeps ``(schema id, key, values)`` against its own schema table and
rebuilds the tree only when read (:func:`rows_tree`).  A list leaf is a
tuple in ``values``; the rebuilt tree holds a fresh list.

Keys are ``/``-joined names, none empty or ``__bytes__``; values are
Conduit leaves.  Rows are built by the monitors that declare their
schemas and are not checked per sample.
"""

from __future__ import annotations

from typing import Any, Sequence

from .node import _BYTES_KEY, _MISSING, Node, PathError, _intern, _split, _value_nbytes

__all__ = ["Row", "Schema", "rows_nbytes", "rows_tree"]


class Schema:
    """The fixed shape of one kind of sample: a head and its leaf paths.

    Two schemas with the same head and leaves are equal, so a store
    keeps one table entry for both.
    """

    __slots__ = ("head", "leaves", "path_bytes", "head_parts", "layout", "_hash")

    def __init__(self, head: str, leaves: Sequence[str]) -> None:
        self.head = _normal(head)
        self.leaves = tuple(_normal(leaf) for leaf in leaves)
        if not self.leaves:
            raise PathError(f"schema {head!r} declares no leaf")
        self.head_parts = tuple(_intern(part) for part in head.split("/"))
        if _BYTES_KEY in self.head_parts:
            raise PathError(f"{_BYTES_KEY!r} is reserved")
        #: Each leaf's path is ``head/key/leaf``: all but the key's
        #: share of the path bytes, summed over the leaves.
        self.path_bytes = sum(len(head) + 2 + len(leaf) for leaf in self.leaves)
        #: The leaves as nested ``(name, value index | sub-layout)``
        #: pairs in tree order, names interned.
        self.layout = _layout(self.leaves)
        self._hash = hash((self.head, self.leaves))

    def nbytes(self, key: str, values: Sequence[Any]) -> int:
        """:meth:`Node.nbytes` of the row's tree, without the tree."""
        return (
            self.path_bytes
            + len(self.leaves) * len(key)
            + sum(map(_value_nbytes, values))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.head == other.head and self.leaves == other.leaves

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({self.head!r}, {self.leaves!r})"


#: One sample: its schema, the variable key below the head, and one
#: value per leaf in the schema's order.
Row = tuple[Schema, str, Sequence[Any]]


def rows_nbytes(rows: "list[Row]") -> int:
    """:meth:`Node.nbytes` of the tree that ``rows`` stand for.

    Rows whose leaves are distinct paths, as every publisher's are.
    """
    return sum(schema.nbytes(key, values) for schema, key, values in rows)


def rows_tree(
    rows: "Sequence[tuple[int, str, Sequence[Any]]]", schemas: "Sequence[Schema]"
) -> Node:
    """The tree of stored rows ``(schema id, key, values)``.

    Built straight into fresh nodes from each schema's layout; a list
    leaf stored as a tuple comes back as a new list.
    """
    root = Node()
    for sid, key, values in rows:
        schema = schemas[sid]
        node = root
        parts = key.split("/")
        last = parts.pop()
        for part in schema.head_parts + tuple(parts):
            kids = node._children
            child = kids.get(part, _MISSING)
            if child is _MISSING:
                child = kids[part] = Node()
            elif type(child) is not Node:
                raise PathError(f"cannot descend through leaf at {part!r}")
            node = child
        kids = node._children
        fresh = Node()
        fresh._children = _fill(schema.layout, values)
        mine = kids.get(last, _MISSING)
        if mine is _MISSING:
            kids[last] = fresh
        elif type(mine) is Node:
            mine._merge(fresh)
        else:
            raise PathError(f"cannot descend through leaf at {last!r}")
    return root


def _fill(layout: tuple, values: Sequence[Any]) -> dict[str, Any]:
    kids: dict[str, Any] = {}
    for name, slot in layout:
        if type(slot) is int:
            value = values[slot]
            kids[name] = list(value) if type(value) is tuple else value
        else:
            node = Node()
            node._children = _fill(slot, values)
            kids[name] = node
    return kids


def _normal(path: str) -> str:
    """``path`` if it is ``/``-joined non-empty names, else PathError."""
    parts = _split(path)
    if "/".join(parts) != path:
        raise PathError(f"path {path!r} has an empty name")
    return path


def _layout(leaves: tuple[str, ...]) -> tuple:
    """Nested ``(name, index | sub-layout)`` pairs, as the tree orders them."""
    root: dict[str, Any] = {}
    for index, leaf in enumerate(leaves):
        *parents, name = leaf.split("/")
        level = root
        for part in parents:
            level = level.setdefault(_intern(part), {})
            if type(level) is not dict:
                raise PathError(f"leaf {leaf!r} descends through a leaf")
        if name == _BYTES_KEY or _BYTES_KEY in parents:
            raise PathError(f"{_BYTES_KEY!r} is reserved")
        if name in level:
            raise PathError(f"leaf {leaf!r} is declared twice or holds leaves")
        level[_intern(name)] = index

    def freeze(level: dict[str, Any]) -> tuple:
        return tuple(
            (name, slot if type(slot) is int else freeze(slot))
            for name, slot in level.items()
        )

    return freeze(root)
