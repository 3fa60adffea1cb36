"""Model-based test of the Conduit Node against a plain nested dict.

The same random operations go to a :class:`Node` and to a model in
which an object node is a ``dict`` and a leaf is its value.  Handles
(from ``fetch`` and ``children``) are tracked by path: a handle stays
attached until its node is deleted, replaced by an ancestor's subtree
assignment, or left behind by ``copy``.  After every operation the tree
must answer ``get``, ``[]``, ``in``, ``leaves()``, ``to_json()`` and
``nbytes()`` as the model does, survive a ``from_json`` round trip, and
every attached handle must see its node's current content.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conduit import Node, PathError

segment = st.sampled_from(["a", "b", "c"])
path = st.lists(segment, min_size=1, max_size=3).map(tuple)
scalar = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(width=32),
    st.sampled_from([math.nan, math.inf]),
    st.text(max_size=3),
    st.booleans(),
    st.binary(max_size=3),
    st.none(),
)
items = st.lists(
    st.one_of(st.integers(-5, 5), st.floats(width=32), st.just(math.nan), st.text(max_size=2)),
    max_size=3,
)
leaf = st.one_of(scalar, items, items.map(tuple))
subtree = st.dictionaries(
    segment,
    st.recursive(leaf, lambda kids: st.dictionaries(segment, kids, max_size=3), max_leaves=6),
    max_size=3,
)
handle_index = st.integers(min_value=0, max_value=50)

operation = st.one_of(
    st.tuples(st.just("set"), path, leaf),
    st.tuples(st.just("set_dict"), path, subtree),
    st.tuples(st.just("set_node"), path, st.one_of(subtree, leaf)),
    st.tuples(st.just("fetch"), path),
    st.tuples(st.just("children"), st.lists(segment, max_size=2).map(tuple)),
    st.tuples(st.just("handle_set"), handle_index, st.one_of(leaf, subtree)),
    st.tuples(st.just("handle_item"), handle_index, segment, leaf),
    st.tuples(st.just("delete"), path),
    st.tuples(st.just("update"), subtree),
    st.tuples(st.just("copy")),
)


class Reject(Exception):
    """The model's PathError."""


_MISSING = object()


def stored(value):
    """What a tree stores for ``value``: a list copy for a sequence."""
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, dict):
        return {k: stored(v) for k, v in value.items()}
    return value


def parent_of(model, parts, create):
    """The model dict holding ``parts[-1]``; leaves block the walk."""
    node = model
    for part in parts[:-1]:
        child = node.get(part, _MISSING)
        if child is _MISSING:
            if not create:
                raise Reject
            child = node[part] = {}
        elif not isinstance(child, dict):
            raise Reject
        node = child
    return node


def model_at(model, parts):
    node = model
    for part in parts:
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


def model_assign_leaf(parent, name, value):
    current = parent.get(name, _MISSING)
    if isinstance(current, dict) and current:
        raise Reject  # a value onto an object node
    parent[name] = stored(value)


def model_update(mine, theirs):
    """Merge in ``theirs``' order, so a rejection leaves the same prefix."""
    for name, value in theirs.items():
        current = mine.get(name, _MISSING)
        if isinstance(value, dict):
            if current is _MISSING:
                mine[name] = stored(value)
            elif isinstance(current, dict):
                model_update(current, value)
            elif value:
                raise Reject  # an object onto a leaf
        else:
            model_assign_leaf(mine, name, value)


def model_leaves(model, prefix=()):
    for name, value in model.items():
        if isinstance(value, dict):
            yield from model_leaves(value, prefix + (name,))
        else:
            yield "/".join(prefix + (name,)), value


def model_paths(model, prefix=()):
    for name, value in model.items():
        yield prefix + (name,), value
        if isinstance(value, dict):
            yield from model_paths(value, prefix + (name,))


def model_json(model):
    def encode(value):
        if isinstance(value, dict):
            return {k: encode(v) for k, v in value.items()}
        if isinstance(value, list):
            return [encode(v) for v in value]
        if isinstance(value, bytes):
            return {"__bytes__": value.hex()}
        return value

    return json.dumps(encode(model))


def model_nbytes(model):
    total = 0
    for p, v in model_leaves(model):
        total += len(p)
        if isinstance(v, (str, bytes)):
            total += len(v)
        elif isinstance(v, bool) or v is None:
            total += 1
        elif isinstance(v, (int, float)):
            total += 8
        else:
            total += 8 * len(v)
    return total


def canon(value):
    """Comparable form of a leaf: exact type kept, NaN equal to NaN."""
    if isinstance(value, float) and value != value:
        return "NaN"
    if isinstance(value, list):
        return [canon(v) for v in value]
    return (type(value), value)


def poke(source):
    """Append to every list in ``source``: a tree sharing one would see it."""
    if isinstance(source, Node):
        values = [value for _, value in source.leaves()]
    elif isinstance(source, dict):
        values = list(source.values())
    else:
        values = [source]
    for value in values:
        if isinstance(value, list):
            value.append("poked")
        elif isinstance(value, dict):
            poke(value)


def check(tree, model, handles):
    assert [(p, canon(v)) for p, v in tree.leaves()] == [
        (p, canon(v)) for p, v in model_leaves(model)
    ]
    for parts, value in model_paths(model):
        p = "/".join(parts)
        assert p in tree
        if isinstance(value, dict):
            assert tree.get(p, _MISSING) is _MISSING
            node = tree[p]
            assert isinstance(node, Node) and node.child_names() == list(value)
        else:
            assert canon(tree[p]) == canon(value)
            assert canon(tree.get(p)) == canon(value)
            assert f"{p}/a" not in tree
            assert tree.get(f"{p}/a", _MISSING) is _MISSING
    for p in ("zz", "a/zz"):  # never in the model
        assert p not in tree
        assert tree.get(p, _MISSING) is _MISSING
        with pytest.raises(PathError):
            tree[p]
    for p in ("", "//", 7):  # malformed
        assert p not in tree
        assert tree.get(p, _MISSING) is _MISSING

    payload = tree.to_json()
    assert payload == model_json(model)
    assert tree.nbytes() == model_nbytes(model)
    restored = Node.from_json(payload)
    assert restored.to_json() == payload
    assert restored == tree

    for parts, handle, attached in handles:
        if not attached:
            continue
        value = model_at(model, parts)
        if isinstance(value, dict):
            assert not handle.is_leaf
            assert handle.to_json() == model_json(value)
        else:
            assert handle.is_leaf and canon(handle.value) == canon(value)


def detach(handles, parts, strictly_under=False):
    n = len(parts)
    for entry in handles:
        under = entry[0][:n] == parts and len(entry[0]) > n
        if under or (not strictly_under and entry[0] == parts):
            entry[2] = False


def real_step(tree, handles, op):
    """``op`` on the tree: (the tree from now on, new handles by path)."""
    kind = op[0]
    if kind in ("set", "set_dict", "set_node"):
        _, parts, value = op
        if kind == "set_node":
            source = Node.from_dict(stored(value))
        else:
            source = copy.deepcopy(value)  # poked below; the model reads op
        try:
            tree["/".join(parts)] = source
        finally:
            poke(source)  # the tree holds copies, so this changes nothing
    elif kind == "fetch":
        return tree, [(op[1], tree.fetch("/".join(op[1])))]
    elif kind == "children":
        parts = op[1]
        path = "/".join(parts)
        if parts and path not in tree:
            return tree, []
        node = tree[path] if parts else tree
        if isinstance(node, Node):  # not a leaf's value
            return tree, [(parts + (name,), child) for name, child in node.children()]
    elif kind in ("handle_set", "handle_item"):
        if handles:
            _, handle, attached = handles[op[1] % len(handles)]
            try:
                if kind == "handle_set":
                    handle.set(op[2])
                else:
                    handle[op[2]] = op[3]
            except PathError:
                if attached:
                    raise
    elif kind == "delete":
        del tree["/".join(op[1])]
    elif kind == "update":
        other = Node.from_dict(stored(op[1]))
        try:
            tree.update(other)
        finally:
            poke(other)
    else:  # copy: the clone is the tree from now on
        old, tree = tree, tree.copy()
        poke(old)
    return tree, []


def model_step(model, handles, op):
    """``op`` on the model, detaching the handles it leaves behind."""
    kind = op[0]
    if kind in ("set", "set_dict", "set_node"):
        _, parts, value = op
        parent = parent_of(model, parts, create=True)
        if kind == "set":
            model_assign_leaf(parent, parts[-1], value)
        else:
            parent[parts[-1]] = stored(value)
            detach(handles, parts, strictly_under=True)
    elif kind == "fetch":
        parent_of(model, op[1], create=True).setdefault(op[1][-1], {})
    elif kind in ("handle_set", "handle_item"):
        if not handles:
            return
        parts, _, attached = handles[op[1] % len(handles)]
        if not attached:
            return  # a detached handle's writes do not reach the tree
        if kind == "handle_item":
            target = model_at(model, parts)
            if not isinstance(target, dict):
                raise Reject
            model_assign_leaf(target, op[2], op[3])
        elif isinstance(op[2], dict):
            parent_of(model, parts, create=False)[parts[-1]] = stored(op[2])
            detach(handles, parts, strictly_under=True)
        else:
            model_assign_leaf(parent_of(model, parts, create=False), parts[-1], op[2])
    elif kind == "delete":
        parent = parent_of(model, op[1], create=False)
        if op[1][-1] not in parent:
            raise Reject
        del parent[op[1][-1]]
        detach(handles, op[1])
    elif kind == "update":
        model_update(model, op[1])
    elif kind == "copy":
        detach(handles, ())


@given(st.lists(operation, min_size=8, max_size=30))
@settings(max_examples=300, deadline=None)
def test_node_matches_nested_dict_model(ops):
    tree, model, handles = Node(), {}, []
    for op in ops:
        try:
            tree, taken = real_step(tree, handles, op)
        except PathError:
            tree_accepted, taken = False, []
        else:
            tree_accepted = True
        try:
            model_step(model, handles, op)
        except Reject:
            model_accepted = False
        else:
            model_accepted = True
        assert tree_accepted == model_accepted, op
        handles.extend([parts, handle, True] for parts, handle in taken)
        check(tree, model, handles)
