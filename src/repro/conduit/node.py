"""Conduit-style hierarchical data model.

The paper (Sec 2.2.2) represents all monitoring data as Conduit trees:
each namespace is a ``Conduit::Node`` whose children are addressed by
``/``-separated paths, with typed leaves at the bottom (Listings 1, 2).
This module reimplements the subset of Conduit's node API the SOMA
stack needs: path get/set, iteration, merging ("update"), flattening,
diffing and a compact serialized form whose size drives the simulated
RPC transfer cost.

Example (the workflow-namespace model of Listing 1)::

    root = Node()
    root["RP/task.000000/1698435412.606"] = "launch_start"
    root["RP/task.000000/1698435412.964"] = "exec_start"
"""

from __future__ import annotations

import json
from typing import Any, Iterator

__all__ = ["Node", "PathError"]

#: Leaf types Conduit understands; anything else must be wrapped.
_LEAF_TYPES = (int, float, str, bool, bytes, type(None))
#: Exact leaf types that ``set`` stores as is (subclasses take the
#: validating path).
_PLAIN_TYPES = frozenset(_LEAF_TYPES)


class PathError(KeyError):
    """Raised for malformed or missing paths."""


def _split(path: str) -> list[str]:
    if not isinstance(path, str):
        raise PathError(f"path must be a string, got {type(path).__name__}")
    parts = path.split("/")
    if "" in parts:  # leading, trailing or doubled slashes; or no path
        parts = [p for p in parts if p]
        if not parts:
            raise PathError(f"empty path {path!r}")
    return parts


class Node:
    """A hierarchical, ordered tree of named children and typed leaves.

    A node is either an *object* node (has named children) or a *leaf*
    (holds a scalar or a homogeneous list of scalars).  Setting a value
    through a path materializes intermediate object nodes, exactly like
    ``conduit::Node::fetch``.
    """

    __slots__ = ("_children", "_value", "_has_value")

    def __init__(self, value: Any = None) -> None:
        self._children: dict[str, Node] = {}
        self._value: Any = None
        self._has_value = False
        if value is not None:
            self.set(value)

    # -- classification -------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self._has_value

    @property
    def is_object(self) -> bool:
        return bool(self._children)

    @property
    def is_empty(self) -> bool:
        return not self._has_value and not self._children

    # -- value access ----------------------------------------------------

    @property
    def value(self) -> Any:
        if not self._has_value:
            raise PathError("node is not a leaf")
        return self._value

    def set(self, value: Any) -> None:
        """Make this node a leaf holding ``value``."""
        if type(value) in _PLAIN_TYPES:
            if self._children:
                raise PathError("cannot assign a value to an object node")
            self._value = value
            self._has_value = True
            return
        if isinstance(value, Node):
            clone = value.copy()
            self._children = clone._children
            self._value = clone._value
            self._has_value = clone._has_value
            return
        if isinstance(value, dict):
            self._children.clear()
            self._has_value = False
            self._value = None
            for key, sub in value.items():
                self[str(key)] = sub
            return
        if isinstance(value, (list, tuple)):
            value = list(value)
            for item in value:
                if not isinstance(item, _LEAF_TYPES):
                    raise TypeError(
                        f"list leaves must hold scalars, got {type(item).__name__}"
                    )
        elif not isinstance(value, _LEAF_TYPES):
            raise TypeError(
                f"unsupported leaf type {type(value).__name__}: {value!r}"
            )
        if self._children:
            raise PathError("cannot assign a value to an object node")
        self._value = value
        self._has_value = True

    # -- path access -------------------------------------------------------

    def fetch(self, path: str) -> "Node":
        """Get the node at ``path``, creating object nodes on the way."""
        if type(path) is str and path and "/" not in path:
            parts: "tuple[str] | list[str]" = (path,)  # one name: no split
        else:
            parts = _split(path)
        node = self
        for part in parts:
            if node._has_value:
                raise PathError(f"cannot descend through leaf at {part!r}")
            child = node._children.get(part)
            if child is None:
                child = Node()
                node._children[part] = child
            node = child
        return node

    def get(self, path: str, default: Any = None) -> Any:
        """Value at ``path``, or ``default`` if missing / not a leaf."""
        try:
            node = self._descend(path)
        except PathError:
            return default
        if node is None or not node._has_value:
            return default
        return node._value

    def _descend(self, path: str) -> "Node | None":
        node = self
        for part in _split(path):
            child = node._children.get(part)
            if child is None:
                return None
            node = child
        return node

    def __getitem__(self, path: str) -> Any:
        node = self._descend(path)
        if node is None:
            raise PathError(path)
        if node._has_value:
            return node._value
        return node

    def __setitem__(self, path: str, value: Any) -> None:
        self.fetch(path).set(value)

    def __contains__(self, path: str) -> bool:
        return self._descend(path) is not None

    def __delitem__(self, path: str) -> None:
        parts = _split(path)
        node = self
        for part in parts[:-1]:
            child = node._children.get(part)
            if child is None:
                raise PathError(path)
            node = child
        if parts[-1] not in node._children:
            raise PathError(path)
        del node._children[parts[-1]]

    def remove(self, path: str) -> None:
        del self[path]

    # -- iteration ---------------------------------------------------------

    def child_names(self) -> list[str]:
        return list(self._children)

    def children(self) -> Iterator[tuple[str, "Node"]]:
        return iter(self._children.items())

    def __iter__(self) -> Iterator[str]:
        return iter(self._children)

    def __len__(self) -> int:
        return len(self._children)

    def number_of_children(self) -> int:
        return len(self._children)

    def leaves(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        """Yield ``(path, value)`` for every leaf under this node."""
        if self._has_value:
            yield prefix or "", self._value
            return
        for name, child in self._children.items():
            sub = f"{prefix}/{name}" if prefix else name
            yield from child.leaves(sub)

    def paths(self) -> list[str]:
        """All leaf paths under this node."""
        return [p for p, _ in self.leaves()]

    # -- structural operations ----------------------------------------------

    def update(self, other: "Node") -> None:
        """Merge ``other`` into this node (other wins on conflicts)."""
        if other._has_value:
            if self._children:
                raise PathError("cannot merge a leaf onto an object node")
            self._value = other._value
            self._has_value = True
            return
        if self._has_value and other._children:
            raise PathError("cannot merge an object onto a leaf node")
        for name, child in other._children.items():
            mine = self._children.get(name)
            if mine is None:
                self._children[name] = child.copy()
            else:
                mine.update(child)

    def copy(self) -> "Node":
        node = Node()
        node._value = (
            list(self._value) if isinstance(self._value, list) else self._value
        )
        node._has_value = self._has_value
        node._children = {k: v.copy() for k, v in self._children.items()}
        return node

    def diff(self, other: "Node") -> list[str]:
        """Paths at which this node and ``other`` differ."""
        result: list[str] = []
        mine = dict(self.leaves())
        theirs = dict(other.leaves())
        for path in sorted(set(mine) | set(theirs)):
            if mine.get(path, _MISSING) != theirs.get(path, _MISSING):
                result.append(path)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return not self.diff(other)

    # -- conversion -----------------------------------------------------------

    def to_dict(self) -> Any:
        """Plain-Python mirror of the tree (leaves become values)."""
        if self._has_value:
            return self._value
        return {name: child.to_dict() for name, child in self._children.items()}

    @classmethod
    def from_dict(cls, data: Any) -> "Node":
        node = cls()
        node.set(data)
        return node

    def to_json(self) -> str:
        def encode(value: Any) -> Any:
            if isinstance(value, bytes):
                return {"__bytes__": value.hex()}
            return value

        def walk(node: "Node") -> Any:
            if node._has_value:
                if isinstance(node._value, list):
                    return [encode(v) for v in node._value]
                return encode(node._value)
            return {name: walk(child) for name, child in node._children.items()}

        return json.dumps(walk(self), sort_keys=False)

    @classmethod
    def from_json(cls, payload: str) -> "Node":
        def decode(value: Any) -> Any:
            if isinstance(value, dict) and set(value) == {"__bytes__"}:
                return bytes.fromhex(value["__bytes__"])
            return value

        def build(data: Any, node: "Node") -> None:
            if isinstance(data, dict) and set(data) != {"__bytes__"}:
                for key, sub in data.items():
                    build(sub, node.fetch(key))
            elif isinstance(data, list):
                node.set([decode(v) for v in data])
            else:
                node.set(decode(data))

        node = cls()
        raw = json.loads(payload)
        build(raw, node)
        return node

    # -- size accounting ---------------------------------------------------------

    def nbytes(self) -> int:
        """Approximate serialized size in bytes.

        This is the quantity the simulated RPC layer charges for when a
        SOMA client publishes a tree, so it must be cheap and stable: the
        sum over :meth:`leaves` of the path length plus the value size.
        The walk carries each path's length instead of building it.
        """
        if self._has_value:
            return _value_nbytes(self._value)
        total = 0
        # (node, length of its path); the root's children have no "/".
        stack: list[tuple[Node, int]] = [(self, -1)]
        while stack:
            node, length = stack.pop()
            for name, child in node._children.items():
                sub = length + 1 + len(name)
                if not child._has_value:
                    stack.append((child, sub))
                    continue
                value = child._value
                kind = type(value)
                # Exact floats, ints and strings (most monitoring leaves)
                # skip the isinstance chain.
                if kind is float or kind is int:
                    total += sub + 8
                elif kind is str:
                    total += sub + len(value)
                else:
                    total += sub + _value_nbytes(value)
        return total

    def num_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._has_value:
            return f"Node({self._value!r})"
        return f"Node({len(self._children)} children)"

    def render(self, indent: int = 0) -> str:
        """Human-readable tree rendering (used in example output)."""
        pad = "  " * indent
        if self._has_value:
            return f"{pad}{self._value!r}"
        lines = []
        for name, child in self._children.items():
            if child._has_value:
                lines.append(f"{pad}{name}: {child._value!r}")
            else:
                lines.append(f"{pad}{name}:")
                lines.append(child.render(indent + 1))
        return "\n".join(lines)


_MISSING = object()


def _value_nbytes(value: Any) -> int:
    """Serialized size of one leaf value (see :meth:`Node.nbytes`)."""
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, bool) or value is None:
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, list):
        return 8 * len(value)
    return 0
