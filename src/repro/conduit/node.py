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

Layout: an object node maps each child name to either a :class:`Node`
or, for a leaf, the bare value.  Most of a monitoring tree is leaves,
so a leaf costs one dict slot instead of a ``Node`` and its empty child
dict, and names are interned on first insert, because every sample
repeats the same few.  A leaf gets a ``Node`` only when someone takes a
handle to it (:meth:`Node.fetch`, :meth:`Node.children`); the handle
replaces the bare value in its parent, so writes through it and through
the parent's paths stay one leaf, exactly as when every leaf was boxed.

The child name ``__bytes__`` is reserved: :meth:`Node.to_json` writes a
``bytes`` leaf as an object with that one key, so a child of that name
would serialize exactly like one.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterator

__all__ = ["Node", "PathError"]

#: Leaf types Conduit understands; anything else must be wrapped.
_LEAF_TYPES = (int, float, str, bool, bytes, type(None))
#: Exact leaf types that ``set`` stores as is (subclasses take the
#: validating path).
_PLAIN_TYPES = frozenset(_LEAF_TYPES)

_intern = sys.intern
#: The key ``to_json`` wraps a ``bytes`` leaf's hex in; no child has it.
_BYTES_KEY = "__bytes__"
_RESERVED = f"{_BYTES_KEY!r} is reserved: to_json() writes bytes leaves under it"


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
        #: name -> child, an exact ``Node`` or a leaf's bare value.
        self._children: dict[str, Any] = {}
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
        """Make this node a leaf holding ``value``.

        A ``Node`` or dict replaces the node's contents with a copy,
        built in full first: a rejected leaf leaves the node as it was.
        """
        if type(value) not in _PLAIN_TYPES:
            if isinstance(value, (Node, dict)):
                if isinstance(value, Node):
                    built = value.copy()
                else:
                    built = Node()
                    for key, sub in value.items():
                        built[str(key)] = sub
                self._children = built._children
                self._value = built._value
                self._has_value = built._has_value
                return
            value = _leaf_value(value)
        if self._children:
            raise PathError("cannot assign a value to an object node")
        self._value = value
        self._has_value = True

    # -- path access -------------------------------------------------------

    def fetch(self, path: str) -> "Node":
        """Get the node at ``path``, creating object nodes on the way.

        A leaf stored inline is boxed in place, so the returned handle
        and the tree keep sharing it.
        """
        if type(path) is str and path and "/" not in path:
            parts: "tuple[str] | list[str]" = (path,)  # one name: no split
        else:
            parts = _split(path)
        node = self
        for part in parts:
            if node._has_value:
                raise PathError(f"cannot descend through leaf at {part!r}")
            kids = node._children
            child = kids.get(part, _MISSING)
            if child is _MISSING:
                if _BYTES_KEY in parts:  # before anything is created
                    raise PathError(_RESERVED)
                child = kids[_intern(part)] = Node()
            elif type(child) is not Node:
                child = kids[part] = _boxed(child)
            node = child
        return node

    def get(self, path: str, default: Any = None) -> Any:
        """Value at ``path``, or ``default`` if missing / not a leaf."""
        try:
            child = self._lookup(path)
        except PathError:
            return default
        if type(child) is Node:
            return child._value if child._has_value else default
        return default if child is _MISSING else child

    def _lookup(self, path: str) -> Any:
        """The child ``Node`` or bare leaf at ``path``, or ``_MISSING``."""
        parts = _split(path)
        name = parts.pop()
        node = self
        for part in parts:
            node = node._children.get(part)
            if type(node) is not Node:  # missing, or a leaf
                return _MISSING
        return node._children.get(name, _MISSING)

    def __getitem__(self, path: str) -> Any:
        child = self._lookup(path)
        if child is _MISSING:
            raise PathError(path)
        if type(child) is Node and child._has_value:
            return child._value
        return child

    def __setitem__(self, path: str, value: Any) -> None:
        if type(value) not in _PLAIN_TYPES:
            if isinstance(value, (Node, dict)):
                self.fetch(path).set(value)  # a subtree needs its Node
                return
            value = _leaf_value(value)
        node = self
        if type(path) is str and path and "/" not in path:
            name = path  # one name: no split
        else:
            parts = _split(path)
            name = parts.pop()
            for part in parts:
                if node._has_value:
                    raise PathError(f"cannot descend through leaf at {part!r}")
                kids = node._children
                child = kids.get(part, _MISSING)
                if child is _MISSING:
                    if name == _BYTES_KEY or _BYTES_KEY in parts:
                        raise PathError(_RESERVED)
                    child = kids[_intern(part)] = Node()
                elif type(child) is not Node:
                    raise PathError(f"cannot descend through leaf at {part!r}")
                node = child
        if node._has_value:
            raise PathError(f"cannot descend through leaf at {name!r}")
        kids = node._children
        child = kids.get(name, _MISSING)
        if child is _MISSING:
            if name == _BYTES_KEY:
                raise PathError(_RESERVED)
            kids[_intern(name)] = value
        elif type(child) is Node:
            child.set(value)  # keeps a taken handle live
        else:
            kids[name] = value

    def __contains__(self, path: str) -> bool:
        try:
            return self._lookup(path) is not _MISSING
        except PathError:
            return False

    def __delitem__(self, path: str) -> None:
        parts = _split(path)
        name = parts.pop()
        node = self
        for part in parts:
            node = node._children.get(part)
            if type(node) is not Node:
                raise PathError(path)
        if name not in node._children:
            raise PathError(path)
        del node._children[name]

    def remove(self, path: str) -> None:
        del self[path]

    # -- iteration ---------------------------------------------------------

    def child_names(self) -> list[str]:
        return list(self._children)

    def children(self) -> Iterator[tuple[str, "Node"]]:
        """Yield ``(name, child)``; inline leaves are boxed as they go."""
        kids = self._children
        for name, child in kids.items():
            if type(child) is not Node:
                child = kids[name] = _boxed(child)
            yield name, child

    def __iter__(self) -> Iterator[str]:
        return iter(self._children)

    def __len__(self) -> int:
        return len(self._children)

    def leaves(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        """Yield ``(path, value)`` for every leaf under this node."""
        if self._has_value:
            yield prefix or "", self._value
            return
        for name, child in self._children.items():
            sub = f"{prefix}/{name}" if prefix else name
            if type(child) is Node:
                yield from child.leaves(sub)
            else:
                yield sub, child

    def paths(self) -> list[str]:
        """All leaf paths under this node."""
        return [p for p, _ in self.leaves()]

    # -- structural operations ----------------------------------------------

    def update(self, other: "Node") -> None:
        """Merge ``other`` into this node (other wins on conflicts).

        Leaf values are copied, never shared with ``other``.
        """
        self._merge(other.copy())

    def _merge(self, other: "Node") -> None:
        """:meth:`update` that takes ``other``'s subtrees and leaves over
        instead of copying them, for an ``other`` that nothing else
        holds (a copy, or a SOMA store's fresh rebuild of a record)."""
        if other._has_value:
            self._merge_leaf(other._value)
            return
        if self._has_value and other._children:
            raise PathError("cannot merge an object onto a leaf node")
        kids = self._children
        for name, theirs in other._children.items():
            mine = kids.get(name, _MISSING)
            if type(theirs) is Node and not theirs._has_value:
                if mine is _MISSING:
                    kids[name] = theirs
                elif type(mine) is Node:
                    mine._merge(theirs)
                elif theirs._children:
                    raise PathError("cannot merge an object onto a leaf node")
                continue
            value = theirs._value if type(theirs) is Node else theirs
            if type(mine) is Node:
                mine._merge_leaf(value)
            else:
                kids[name] = value

    def _merge_leaf(self, value: Any) -> None:
        if self._children:
            raise PathError("cannot merge a leaf onto an object node")
        self._value = value
        self._has_value = True

    def copy(self) -> "Node":
        node = Node()
        node._value = _copy_value(self._value)
        node._has_value = self._has_value
        node._children = {
            name: child.copy() if type(child) is Node else _copy_value(child)
            for name, child in self._children.items()
        }
        return node

    def diff(self, other: "Node") -> list[str]:
        """Paths at which this node and ``other`` differ."""
        result: list[str] = []
        mine = dict(self.leaves())
        theirs = dict(other.leaves())
        for path in sorted(set(mine) | set(theirs)):
            if not _same(mine.get(path, _MISSING), theirs.get(path, _MISSING)):
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
        return {
            name: child.to_dict() if type(child) is Node else child
            for name, child in self._children.items()
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Node":
        node = cls()
        node.set(data)
        return node

    @staticmethod
    def from_mirror(data: Any) -> "Node":
        """A new tree whose :meth:`to_dict` is ``data``, trusting it.

        ``data`` must be a ``to_dict`` result, or an unpickled copy of
        one (as a SOMA store keeps each record), and is taken over, not
        copied.  No path is split and no leaf re-checked; names are
        interned as on insert.  Anything else goes through
        :meth:`from_dict`.
        """
        if type(data) is not dict:
            return _boxed(data)
        node = Node()
        node._children = {
            _intern(name): Node.from_mirror(sub) if type(sub) is dict else sub
            for name, sub in data.items()
        }
        return node

    def to_json(self) -> str:
        def encode(value: Any) -> Any:
            if isinstance(value, bytes):
                return {_BYTES_KEY: value.hex()}
            return value

        def leaf(value: Any) -> Any:
            if isinstance(value, list):
                return [encode(v) for v in value]
            return encode(value)

        def walk(node: "Node") -> Any:
            if node._has_value:
                return leaf(node._value)
            return {
                name: walk(child) if type(child) is Node else leaf(child)
                for name, child in node._children.items()
            }

        return json.dumps(walk(self), sort_keys=False)

    @classmethod
    def from_json(cls, payload: str) -> "Node":
        def decode(value: Any) -> Any:
            if isinstance(value, dict) and set(value) == {_BYTES_KEY}:
                return bytes.fromhex(value[_BYTES_KEY])
            if isinstance(value, list):
                return [decode(v) for v in value]
            return value

        def is_object(data: Any) -> bool:
            return isinstance(data, dict) and set(data) != {_BYTES_KEY}

        def build(data: dict, node: "Node") -> None:
            for key, sub in data.items():
                if is_object(sub):
                    build(sub, node.fetch(key))
                else:
                    node[key] = decode(sub)

        node = cls()
        raw = json.loads(payload)
        if is_object(raw):
            build(raw, node)
        else:
            node.set(decode(raw))
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
                kind = type(child)
                # Exact floats, ints and strings (most monitoring leaves)
                # skip the isinstance chain.
                if kind is float or kind is int:
                    total += sub + 8
                elif kind is str:
                    total += sub + len(child)
                elif kind is not Node:
                    total += sub + _value_nbytes(child)
                elif child._has_value:
                    total += sub + _value_nbytes(child._value)
                else:
                    stack.append((child, sub))
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
            if type(child) is not Node:
                lines.append(f"{pad}{name}: {child!r}")
            elif child._has_value:
                lines.append(f"{pad}{name}: {child._value!r}")
            else:
                lines.append(f"{pad}{name}:")
                lines.append(child.render(indent + 1))
        return "\n".join(lines)


_MISSING = object()


def _boxed(value: Any) -> Node:
    """A leaf ``Node`` holding ``value`` itself (a list is not copied)."""
    node = Node()
    node._value = value
    node._has_value = True
    return node


def _leaf_value(value: Any) -> Any:
    """``value`` as a stored leaf: a checked list copy, or a scalar."""
    if isinstance(value, (list, tuple)):
        value = list(value)
        for item in value:
            if not isinstance(item, _LEAF_TYPES):
                raise TypeError(
                    f"list leaves must hold scalars, got {type(item).__name__}"
                )
    elif not isinstance(value, _LEAF_TYPES):
        raise TypeError(f"unsupported leaf type {type(value).__name__}: {value!r}")
    return value


def _copy_value(value: Any) -> Any:
    return list(value) if type(value) is list else value  # stored lists are exact


def _same(a: Any, b: Any) -> bool:
    """Leaf equality under which NaN equals NaN, so a tree equals itself."""
    if a == b:
        return True
    if isinstance(a, float) and isinstance(b, float):
        return a != a and b != b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return False


def _value_nbytes(value: Any) -> int:
    """Serialized size of one leaf value (see :meth:`Node.nbytes`).

    A list leaf may come as a tuple (a row's values hold one so).
    """
    kind = type(value)
    if kind is float or kind is int:
        return 8
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, bool) or value is None:
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (list, tuple)):
        return 8 * len(value)
    return 0
