"""Namespace stores: time-indexed publish storage."""

import pytest

from repro.conduit import Node
from repro.soma import NamespaceStore


def tree(**leaves):
    node = Node()
    for key, value in leaves.items():
        node[key] = value
    return node


@pytest.fixture
def store():
    s = NamespaceStore("hardware")
    s.append(1.0, "hwmon@cn0001", tree(a=1))
    s.append(2.0, "hwmon@cn0002", tree(b=2))
    s.append(3.0, "hwmon@cn0001", tree(a=3))
    return s


def test_len_and_bytes(store):
    assert len(store) == 3
    assert store.total_bytes > 0


def test_records_time_window(store):
    assert [r.time for r in store.records(since=1.5)] == [2.0, 3.0]
    assert [r.time for r in store.records(until=2.0)] == [1.0, 2.0]
    assert [r.time for r in store.records(since=1.5, until=2.5)] == [2.0]


def test_records_by_source(store):
    recs = store.records(source="hwmon@cn0001")
    assert [r.time for r in recs] == [1.0, 3.0]


def test_latest(store):
    assert store.latest().time == 3.0
    assert store.latest(source="hwmon@cn0002").time == 2.0
    assert store.latest(source="ghost") is None


def test_latest_empty():
    assert NamespaceStore("x").latest() is None


def test_sources(store):
    assert store.sources() == {"hwmon@cn0001", "hwmon@cn0002"}


def test_merged(store):
    merged = store.merged()
    assert merged["a"] == 3  # later publish wins
    assert merged["b"] == 2


def test_merged_source_filter(store):
    only_cn1 = store.merged(source="hwmon@cn0001")
    assert only_cn1["a"] == 3
    assert "b" not in only_cn1  # cn0002's publish excluded
    # Composes with the time window: cn0001's later publish drops out.
    early = store.merged(source="hwmon@cn0001", until=1.5)
    assert early["a"] == 1
    assert store.merged(source="ghost").is_empty


def test_merged_does_not_share_leaves_with_stored_records():
    s = NamespaceStore("hardware")
    for at, gpu in ((1.0, [1.0]), (2.0, [2.0, 3.0])):
        data = Node()
        data["PROC/h0/gpu"] = gpu
        s.append(at, "hwmon@h0", data)
    before = [(r.data.to_json(), r.nbytes) for r in s]
    s.merged()["PROC/h0/gpu"].append(99.0)
    assert [(r.data.to_json(), r.nbytes) for r in s] == before
    assert all(r.nbytes == r.data.nbytes() for r in s)


def test_out_of_order_insert_keeps_time_order():
    s = NamespaceStore("x")
    s.append(5.0, "a", tree(v=1))
    s.append(2.0, "b", tree(w=2))
    assert [r.time for r in s.records()] == [2.0, 5.0]


def test_iteration(store):
    assert len(list(store)) == 3


def test_source_window_query(store):
    recs = store.records(source="hwmon@cn0001", since=1.5)
    assert [r.time for r in recs] == [3.0]
    assert store.records(source="hwmon@cn0001", since=1.5, until=2.5) == []
    assert store.records(source="ghost", since=0.0) == []


def test_source_index_matches_linear_scan_out_of_order():
    """The per-source index must be the global list filtered by source,
    even through the insort path and timestamp ties."""
    s = NamespaceStore("x")
    appends = [
        (5.0, "a"), (1.0, "b"), (3.0, "a"), (3.0, "b"),
        (2.0, "a"), (5.0, "b"), (4.0, "a"), (3.0, "a"),
    ]
    for i, (at, source) in enumerate(appends):
        s.append(at, source, tree(v=i))
    for source in ("a", "b"):
        expected = [r for r in s.records() if r.source == source]
        assert s.records(source=source) == expected
        assert s.latest(source) == expected[-1]
        for since, until in ((None, None), (2.0, 4.0), (3.0, 3.0), (6.0, None)):
            assert s.records(source=source, since=since, until=until) == [
                r for r in expected
                if (since is None or r.time >= since)
                and (until is None or r.time <= until)
            ]


def test_source_index_latest_after_late_arrival():
    s = NamespaceStore("x")
    s.append(10.0, "a", tree(v=1))
    s.append(4.0, "a", tree(v=2))  # late arrival must not become latest
    assert s.latest("a").time == 10.0
    assert [r.time for r in s.records(source="a")] == [4.0, 10.0]
