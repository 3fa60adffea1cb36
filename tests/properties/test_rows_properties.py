"""Rows and trees store the same record.

A publisher may send a sample as rows against a schema
(:mod:`repro.conduit.rows`) instead of a tree.  For any rows, the
record the store keeps must be the record of the tree that setting
each row's ``<head>/<key>/<leaf>`` paths in turn builds: the same
``nbytes``, ``to_json()``, leaf types and ``==``.  So must the client's
health annotation, whether it goes on rows or on a tree.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conduit import Node, PathError
from repro.conduit.rows import Schema, rows_nbytes
from repro.platform import summit_like
from repro.rp import Session
from repro.soma import SomaClient
from repro.soma.storage import NamespaceStore

#: Few names, so rows share heads, key prefixes and leaf names.
name = st.sampled_from(["a", "b", "cpu", "rank00001", "Num Processes", "1.500000"])
path = st.lists(name, min_size=1, max_size=3).map("/".join)

scalar = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.just(math.nan),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    st.binary(max_size=6),
)
#: A list leaf, as a row holds it: a tuple, or a list.
list_leaf = st.tuples(
    st.lists(scalar, max_size=4), st.sampled_from([tuple, list])
).map(lambda pair: pair[1](pair[0]))
leaf_value = st.one_of(scalar, list_leaf)

raw_row = st.tuples(path, path, st.lists(st.tuples(path, leaf_value), min_size=1, max_size=4))


def _clashes(full: tuple[str, ...], taken: set[tuple[str, ...]]) -> bool:
    """``full`` equals, or is a path prefix of, or has as one, a taken path."""
    return any(
        full[: len(other)] == other or other[: len(full)] == full for other in taken
    )


def distinct_rows(raw):
    """The rows of ``raw`` whose leaves name distinct, nested-free paths."""
    taken: set[tuple[str, ...]] = set()
    rows = []
    for head, key, leaves in raw:
        kept = []
        for leaf, value in leaves:
            full = tuple(f"{head}/{key}/{leaf}".split("/"))
            if not _clashes(full, taken):
                taken.add(full)
                kept.append((leaf, value))
        if kept:
            schema = Schema(head, [leaf for leaf, _ in kept])
            rows.append((schema, key, tuple(value for _, value in kept)))
    return rows


def tree_of(rows) -> Node:
    """The tree built path by path, as a publisher without rows would."""
    tree = Node()
    for schema, key, values in rows:
        for leaf, value in zip(schema.leaves, values):
            tree[f"{schema.head}/{key}/{leaf}"] = value
    return tree


def leaf_types(node):
    return [
        (p, type(v), [type(item) for item in v] if type(v) is list else None)
        for p, v in node.leaves()
    ]


def assert_same_record(row_record, tree_record, tree):
    got = row_record.data
    assert got.to_json() == tree.to_json() == tree_record.data.to_json()
    assert row_record.nbytes == tree_record.nbytes == tree.nbytes() == got.nbytes()
    assert type(row_record.nbytes) is int
    assert leaf_types(got) == leaf_types(tree)
    assert got == tree


@given(st.lists(raw_row, min_size=1, max_size=6))
@settings(max_examples=300)
def test_rows_store_the_record_of_their_tree(raw):
    rows = distinct_rows(raw)
    tree = tree_of(rows)
    store = NamespaceStore("x")
    row_record = store.append(1.0, "src", rows)
    tree_record = store.append(2.0, "src", tree)
    assert rows_nbytes(rows) == tree.nbytes()
    assert_same_record(row_record, tree_record, tree)
    # Every read is the reader's own: no list is shared between two.
    first, second = row_record.data, row_record.data
    assert not {id(v) for _, v in first.leaves() if type(v) is list} & {
        id(v) for _, v in second.leaves() if type(v) is list
    }


@pytest.fixture(scope="module")
def client():
    return SomaClient(Session(cluster_spec=summit_like(2), seed=1), "probe@cn0001")


health = st.fixed_dictionaries(
    {
        "dropped": st.integers(min_value=0, max_value=5),
        "retries": st.integers(min_value=0, max_value=5),
        "gap_seconds": st.floats(min_value=0.0, max_value=1e4),
        "degrade": st.sampled_from(["drop", "summarize"]),
        "degraded": st.dictionaries(
            st.sampled_from(["workflow", "hardware", "performance"]),
            st.tuples(
                st.integers(min_value=1, max_value=50),
                st.floats(min_value=0.0, max_value=1e6),
            ),
        ),
    }
)


@given(st.lists(raw_row, min_size=1, max_size=4), health)
@settings(max_examples=150)
def test_health_rows_match_the_tree_annotation(client, raw, state):
    rows = distinct_rows(raw)
    tree = tree_of(rows)
    client.dropped = state["dropped"]
    client._rpc.retries = state["retries"]
    client.gap_seconds = state["gap_seconds"]
    client.degrade = state["degrade"]
    client._degraded = {
        namespace: {"samples": samples, "bytes": nbytes}
        for namespace, (samples, nbytes) in state["degraded"].items()
    }
    before = (list(rows), tree.to_json())
    annotated_tree = client._annotate_health(tree)
    annotated_rows = client._annotate_health(rows)
    # The caller's sample stays as it was.
    assert (list(rows), tree.to_json()) == before
    store = NamespaceStore("x")
    row_record = store.append(1.0, "src", annotated_rows)
    tree_record = store.append(2.0, "src", annotated_tree)
    assert_same_record(row_record, tree_record, annotated_tree)
    annotated = state["dropped"] or state["retries"]
    assert ("SOMA/health/probe@cn0001/dropped" in annotated_tree) == bool(annotated)


@pytest.mark.parametrize(
    "head, leaves",
    [
        ("", ["a"]),
        ("a//b", ["c"]),
        ("a", []),
        ("a", ["b", "b"]),
        ("a", ["b", "b/c"]),
        ("a", ["b/c", "b"]),
        ("a", ["b/"]),
        ("a", ["__bytes__"]),
        ("__bytes__", ["a"]),
    ],
)
def test_schema_rejects_what_no_tree_holds(head, leaves):
    with pytest.raises(PathError):
        Schema(head, leaves)


def test_schemas_are_equal_by_head_and_leaves():
    store = NamespaceStore("x")
    for _ in range(3):
        schema = Schema("TAU", ("MPI_Recv", "io"))
        store.append(1.0, "src", [(schema, "t/h/rank00000", (1.0, 2.0))])
    assert len(store._schemas) == 1
    assert Schema("TAU", ("io",)) != Schema("TAU", ("MPI_Recv",))
    assert [r.data.to_json() for r in store] == [
        '{"TAU": {"t": {"h": {"rank00000": {"MPI_Recv": 1.0, "io": 2.0}}}}}'
    ] * 3
