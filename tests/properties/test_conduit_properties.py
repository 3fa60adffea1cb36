"""Property-based tests for the Conduit data model."""

import math
import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conduit import Node, PathError
from repro.soma import NamespaceStore

# Path segments: nonempty, no slashes.
segment = st.text(
    alphabet=string.ascii_letters + string.digits + "._-",
    min_size=1,
    max_size=8,
)
path = st.lists(segment, min_size=1, max_size=4).map("/".join)
scalar = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
    st.binary(max_size=16),
)
#: ``scalar`` plus NaN and the infinities.
any_scalar = st.one_of(scalar, st.sampled_from([math.nan, math.inf, -math.inf]))


def build(pairs):
    node = Node()
    inserted = {}
    for p, v in pairs:
        try:
            node[p] = v
        except Exception:
            # Prefix conflicts (leaf vs object) are legal rejections.
            continue
        inserted[p] = v
        # Drop any previously recorded path invalidated by overwrite.
        for other in list(inserted):
            if other != p and (
                other.startswith(p + "/") or p.startswith(other + "/")
            ):
                del inserted[other]
    return node, inserted


@given(st.lists(st.tuples(path, scalar), max_size=12))
@settings(max_examples=200)
def test_set_then_get_round_trip(pairs):
    node, inserted = build(pairs)
    for p, v in inserted.items():
        got = node[p]
        if isinstance(v, float) and isinstance(got, float):
            assert got == v or (got != got and v != v)
        else:
            assert got == v


@given(st.lists(st.tuples(path, scalar), max_size=12))
@settings(max_examples=200)
def test_json_round_trip_preserves_tree(pairs):
    node, _ = build(pairs)
    restored = Node.from_json(node.to_json())
    assert restored.diff(node) == []


@given(st.lists(st.tuples(path, any_scalar), max_size=10))
@settings(max_examples=100)
def test_copy_is_independent(pairs):
    node, inserted = build(pairs)
    clone = node.copy()
    assert clone == node
    clone["___mutant___"] = 1
    assert "___mutant___" not in node


@given(
    st.lists(st.tuples(path, scalar), max_size=8),
    st.lists(st.tuples(path, scalar), max_size=8),
)
@settings(max_examples=100)
def test_update_union_of_leaves(pairs_a, pairs_b):
    a, _ = build(pairs_a)
    b, _ = build(pairs_b)
    merged = a.copy()
    try:
        merged.update(b)
    except Exception:
        return  # structural conflict: leaf vs object — legal rejection
    leaves_b = dict(b.leaves())
    merged_leaves = dict(merged.leaves())
    # Every leaf of b survives verbatim in the merge.
    for p, v in leaves_b.items():
        assert merged_leaves.get(p) == v or (v != v)


@given(st.lists(st.tuples(path, any_scalar), max_size=10))
@settings(max_examples=100)
def test_diff_self_is_empty(pairs):
    node, _ = build(pairs)
    assert node.diff(node) == []
    assert node == node.copy()


@given(st.lists(st.tuples(path, scalar), max_size=10))
@settings(max_examples=100)
def test_nbytes_nonnegative_and_monotone(pairs):
    node, _ = build(pairs)
    before = node.nbytes()
    assert before >= 0
    node["zzz_extra/leaf"] = "payload"
    assert node.nbytes() > before


# Every leaf kind Conduit accepts, lists and None included.
leaf = st.one_of(
    scalar,
    st.none(),
    st.lists(st.one_of(st.integers(), st.floats(width=32), st.text(max_size=4)), max_size=5),
)


def reference_nbytes(node):
    """The size ``nbytes`` promises, summed over ``leaves()``."""
    total = 0
    for p, v in node.leaves():
        total += len(p)
        if isinstance(v, (str, bytes)):
            total += len(v)
        elif isinstance(v, bool) or v is None:
            total += 1
        elif isinstance(v, (int, float)):
            total += 8
        elif isinstance(v, list):
            total += 8 * len(v)
    return total


def subtrees(node):
    yield node
    for _, child in node.children():
        yield from subtrees(child)


@given(st.lists(st.tuples(path, leaf), max_size=12))
@settings(max_examples=200)
def test_nbytes_is_the_exact_leaf_sum(pairs):
    node, _ = build(pairs)
    # Every subtree too: inner roots, and leaves sized as a root.
    for sub in subtrees(node):
        size = sub.nbytes()
        assert type(size) is int
        assert size == reference_nbytes(sub)


@given(st.lists(st.tuples(path, scalar), max_size=10))
@settings(max_examples=100)
def test_num_leaves_matches_iteration(pairs):
    node, _ = build(pairs)
    assert node.num_leaves() == len(list(node.leaves()))
    assert node.num_leaves() == len(node.paths())


# What a SOMA store must keep exactly: every leaf kind above plus numpy
# floats (NaN included) and bytes, root leaves (None too), and empty
# object children.
stored_leaf = st.one_of(
    leaf,
    any_scalar,
    st.floats(width=32).map(np.float64),
    st.binary(max_size=8),
)


def root_leaf(value):
    node = Node()
    node.set(value)
    return node


def with_empty_children(pairs, empty):
    node, _ = build(pairs)
    for p in empty:
        try:
            node.fetch(p)  # an empty object child, or a boxed leaf
        except PathError:
            continue  # under a leaf: a legal rejection
    return node


stored_tree = st.one_of(
    stored_leaf.map(root_leaf),
    st.builds(
        with_empty_children,
        st.lists(st.tuples(path, stored_leaf), max_size=12),
        st.lists(path, max_size=3),
    ),
)


def leaf_types(node):
    return [
        (p, type(v), [type(item) for item in v] if type(v) is list else None)
        for p, v in node.leaves()
    ]


@given(stored_tree)
@settings(max_examples=300)
def test_store_round_trips_every_tree(tree):
    record = NamespaceStore("x").append(1.0, "src", tree)
    got = record.data
    assert got.to_json() == tree.to_json()
    assert got.nbytes() == tree.nbytes() == record.nbytes
    assert leaf_types(got) == leaf_types(tree)
    assert got == tree
    assert (got.is_leaf, got.is_empty) == (tree.is_leaf, tree.is_empty)
