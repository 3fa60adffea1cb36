"""Namespace stores: time-indexed publish storage."""

import gc
import tracemalloc

import pytest

from repro.conduit import Node
from repro.monitors.hardware_monitor import PROC_SAMPLE
from repro.platform import summit_like
from repro.rp import Client, PilotDescription, Session
from repro.soma import (
    HARDWARE,
    NamespaceStore,
    SomaClient,
    SomaConfig,
    cpu_utilization_series,
    deploy_soma,
    task_state_observations,
)


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


def test_two_merges_share_no_node_or_list():
    s = hardware_and_workflow_store()

    def parts(root):
        """Every node, dict and list reachable from ``root``, by id."""
        seen, stack = {}, [root]
        while stack:
            obj = stack.pop()
            if id(obj) not in seen:
                seen[id(obj)] = obj
                stack.extend(
                    ref
                    for ref in gc.get_referents(obj)
                    if type(ref) in (Node, dict, list)
                )
        return seen

    first, second = s.merged(), s.merged()
    assert first == second
    assert not parts(first).keys() & parts(second).keys()


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


def test_published_record_does_not_follow_the_callers_tree():
    session = Session(cluster_spec=summit_like(4), seed=2)
    client = Client(session)
    env = session.env
    config = SomaConfig(namespaces=(HARDWARE,), monitors=())
    data = Node()
    data["PROC/cn0001/1.0/Uptime"] = 1

    def main(env):
        pilot = yield from client.submit_pilot(PilotDescription(nodes=2, agent_nodes=1))
        deployment = yield from deploy_soma(client, pilot, config)
        assert (yield from SomaClient(session, "caller").publish(HARDWARE, data))
        data["PROC/cn0001/1.0/Uptime"] = 99
        data["PROC/cn0001/1.0/extra"] = 2.0
        return deployment

    deployment = env.run(env.process(main(env)))
    record = deployment.store(HARDWARE).latest()
    assert record.data["PROC/cn0001/1.0/Uptime"] == 1
    assert "PROC/cn0001/1.0/extra" not in record.data
    client.close()


def hardware_and_workflow_store():
    s = NamespaceStore("mixed")
    for i in range(4):
        at = 30.0 * (i + 1)
        data = Node()
        data[f"PROC/cn0001/{at:.6f}/cpu_utilization"] = 0.25 * i
        data[f"PROC/cn0001/{at:.6f}/gpu_utilization"] = 0.5
        data[f"PROC/cn0001/{at:.6f}/core_busy"] = [1.0, 0.0]
        s.append(at, "hwmon@cn0001", data)
        data = Node()
        data[f"RP/task.{i:06d}/{at:.6f}"] = "AGENT_EXECUTING"
        s.append(at, "rpmon", data)
    return s


def test_reading_never_changes_the_store():
    s = hardware_and_workflow_store()
    jsons = [r.data.to_json() for r in s]
    blobs = [r.blob for r in s]
    # The readers that walk stored trees with children(), which boxes
    # the leaves it hands out, and a reader that writes to what it read.
    assert cpu_utilization_series(s)["cn0001"][-1].cpu_utilization == 0.75
    assert len(task_state_observations(s)) == 4
    for record in s:
        tree = record.data
        tree["PROC/cn0001/mutant"] = 1
        for _name, child in tree.children():
            child.fetch("boxed")
    s.merged()["PROC/cn0001/30.000000/core_busy"].append(99.0)
    assert [r.data.to_json() for r in s] == jsons
    assert all(r.blob is blob for r, blob in zip(s, blobs))


def test_record_holds_a_snapshot_not_a_tree():
    s = hardware_and_workflow_store()
    record = s.latest()
    assert not any(isinstance(ref, Node) for ref in gc.get_referents(record))
    first, second = record.data, record.data
    assert first == second and first is not second
    first["RP/task.000003/120.000000"] = "DONE"
    assert second["RP/task.000003/120.000000"] == "AGENT_EXECUTING"


def facility_tree(tenant, i):
    data = Node()
    data[f"RP/{tenant}/completed"] = i
    data[f"RP/{tenant}/batch"] = 3
    data[f"RP/{tenant}/last_finish"] = 60.0 * i + 0.5
    return data


def test_stored_record_memory_floor():
    """A facility-shaped record (three leaves) retains at most 450 B.

    It retained 963 B as a live tree on Python 3.11; serialized it is
    about 300 B: the record, its pickled mirror, its time and four list
    slots.
    """
    tenants = [f"tenant.{k:04d}" for k in range(200)]
    sources = [f"rpmon@{tenant}" for tenant in tenants]
    # Keep every child name interned throughout: were the last tree
    # naming a tenant freed, each append would drop and re-intern its
    # names, and a resize of the interpreter's intern table inside the
    # window would be counted against the store.
    names = [facility_tree(tenant, 0) for tenant in tenants]
    s = NamespaceStore("workflow")
    count = 4000
    tracemalloc.start()
    try:
        for i in range(400):  # warm-up: every source's index, pickle's caches
            k = i % 200
            s.append(float(i), sources[k], facility_tree(tenants[k], i))
        before = tracemalloc.get_traced_memory()[0]
        for i in range(400, 400 + count):
            k = i % 200
            s.append(float(i), sources[k], facility_tree(tenants[k], i))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(s) == 400 + count and len(names) == 200
    assert retained / count <= 450


def hardware_row(host, i):
    """One hardware monitor sample as it publishes it: one row."""
    at = 30.0 * i + 0.25
    values = (
        round(at + 120.0, 3),
        i % 7,
        round(512000.0 - i * 3.7, 1),
        (round(i * 41.3, 1), round(i * 0.7, 1)),
        42,
        round(i * 5.5, 3),
        round((i % 10) / 10, 4),
        round((i % 4) / 4, 4),
    )
    return [(PROC_SAMPLE, f"{host}/{at:.6f}", values)]


def test_row_record_memory_floor():
    """A hardware-shaped row record retains at most 350 B.

    As a pickled tree mirror the same sample retains about 450 B: the
    mirror repeats every leaf name, the rows only the key and values.
    """
    hosts = [f"cn{k:04d}" for k in range(200)]
    sources = [f"hwmon@{host}" for host in hosts]
    s = NamespaceStore("hardware")
    count = 4000
    tracemalloc.start()
    try:
        for i in range(400):  # warm-up: every source's index, pickle's caches
            k = i % 200
            s.append(float(i), sources[k], hardware_row(hosts[k], i))
        before = tracemalloc.get_traced_memory()[0]
        for i in range(400, 400 + count):
            k = i % 200
            s.append(float(i), sources[k], hardware_row(hosts[k], i))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(s) == 400 + count and len(s._schemas) == 1
    assert retained / count <= 350
