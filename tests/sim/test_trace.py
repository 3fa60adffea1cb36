"""Tracer behaviour."""

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
    assert [r.name for r in tracer.select(since=5, until=15)] == ["t10"]


def test_disabled_tracer_stores_nothing(env):
    tracer = Tracer(env, enabled=False)
    tracer.record("a", "x")
    assert len(tracer) == 0
    assert tracer.count("a") == 1


def test_clear(env):
    tracer = Tracer(env)
    tracer.record("a", "x")
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.count("a") == 0


def test_record_get_helper(env):
    tracer = Tracer(env)
    tracer.record("a", "x", key="val")
    rec = tracer.records[0]
    assert rec.get("key") == "val"
    assert rec.get("missing", "default") == "default"
