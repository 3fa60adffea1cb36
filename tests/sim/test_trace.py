"""Tracer behaviour."""

import tracemalloc
from types import SimpleNamespace

import pytest

from repro.sim import Tracer


def test_records_carry_time(env):
    tracer = Tracer(env)
    tracer.record("cat", "x", value=1)
    env.run(until=5)
    tracer.record("cat", "y", value=2)
    times = [r.time for r in tracer]
    assert times == [0.0, 5.0]


def test_select_filters(env):
    tracer = Tracer(env)
    tracer.record("a", "one")
    tracer.record("b", "two")
    tracer.record("a", "three")
    assert len(tracer.select(category="a")) == 2
    assert len(tracer.select(name="two")) == 1
    assert tracer.categories() == {"a", "b"}


def test_select_time_window(env):
    tracer = Tracer(env)
    tracer.record("c", "t0")
    env.run(until=10)
    tracer.record("c", "t10")
    env.run(until=20)
    tracer.record("c", "t20")
    assert [r.name for r in tracer.select(category="c") if 5 <= r.time <= 15] == ["t10"]


class Points:
    """A row source whose rows are ``(time, category, name)`` triples;
    it counts the records it builds."""

    trace_categories = frozenset({"b"})

    def __init__(self):
        self.rows = []
        self.built = 0

    def traced(self):
        return iter(range(len(self.rows)))

    def trace_key(self, row):
        return self.rows[row][1:]

    def record(self, row):
        self.built += 1
        time, category, name = self.rows[row]
        return SimpleNamespace(time=time, category=category, name=name, data={"row": row})


def test_added_rows_keep_their_place_and_are_built_on_read(env):
    """``add`` keeps a source's row in its place among the records; the
    row's record is built only when a reader takes it."""
    tracer = Tracer(env)
    points = Points()
    tracer.record("a", "x")
    points.rows.append((0.0, "b", "y"))
    tracer.add(points)
    tracer.record("a", "z")
    assert len(tracer) == 3
    assert tracer.count("a") == 2 and tracer.count("b") == 1
    assert tracer.count("c") == 0
    assert tracer.categories() == {"a", "b"}
    assert [r.name for r in tracer.select(name="x")] == ["x"]
    assert points.built == 0  # classified by trace_key, never built
    assert [r.name for r in tracer.records] == ["x", "y", "z"]
    assert tracer.records[1].data == {"row": 0}
    assert [r.name for r in tracer.select(category="b")] == ["y"]
    assert [r.name for r in tracer.select(category="a")] == ["x", "z"]
    assert points.built == 3
    with pytest.raises(ValueError):
        tracer.add(Points())  # one row source per tracer


def test_record_get_helper(env):
    tracer = Tracer(env)
    tracer.record("a", "x", key="val")
    rec = tracer.records[0]
    assert rec.get("key") == "val"
    assert rec.get("missing", "default") == "default"


def test_record_data_is_rebuilt_on_each_read(env):
    tracer = Tracer(env)
    tracer.record("rp.state", "task.000000", state="DONE", node="cn0001")
    tracer.record("rp.state", "task.000001", state="FAILED", node="cn0002")
    first, second = tracer.records
    assert first.keys is second.keys  # one key tuple per key set
    a, b = first.data, first.data
    assert a == b == {"state": "DONE", "node": "cn0001"} and a is not b
    assert list(a) == ["state", "node"]
    a["state"] = "CANCELED"
    a["extra"] = 1
    assert first.data == b
    assert first.get("state") == "DONE" and first.get("extra") is None


def test_record_memory_floor(env):
    """An ``rp.state``-shaped record retains at most 170 B.

    With its own kwargs dict it retained 256 B on Python 3.11; with a
    shared key tuple it is the record, its values tuple and a list
    slot, about 135 B.
    """
    count = 10_000
    uids = [f"task.{i:06d}" for i in range(count)]
    nodes = [f"cn{k:04d}" for k in range(64)]
    states = ["AGENT_EXECUTING", "AGENT_STAGING_OUTPUT"]
    tracer = Tracer(env)
    tracer.record("rp.state", "warm-up", state=states[0], node=nodes[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, uid in enumerate(uids):
            tracer.record("rp.state", uid, state=states[i % 2], node=nodes[i % 64])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tracer) == count + 1
    assert retained / count <= 170
