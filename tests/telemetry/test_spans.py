"""Unit tests for the span model and context propagation machinery."""

from __future__ import annotations

import pytest

from repro.sim import Environment, Interrupt, observability, switches
from repro.telemetry import SpanContext, Telemetry


@pytest.fixture
def tel(env):
    return Telemetry(env, enabled=True)


# -- enable/disable ------------------------------------------------------


def test_disabled_hub_is_inert(env):
    with observability() as hubs:
        hub = Telemetry(env, enabled=False)
    assert not hub.enabled
    assert getattr(env, "_telemetry", None) is None
    assert hubs == []
    assert hub.start_span("x", component="c") is None
    hub.end_span(None)
    hub.bind("uid", None)
    with hub.span("y", component="c") as span:
        assert span is None
    assert hub.spans == []
    assert hub.counters()["spans_started"] == 0


def test_default_telemetry_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "yes")
    assert switches().telemetry
    assert Telemetry(Environment()).enabled
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    assert not switches().telemetry
    monkeypatch.delenv("REPRO_TELEMETRY")
    assert not Telemetry(Environment()).enabled


# -- span lifecycle ----------------------------------------------------


def test_root_then_child_adopts_ambient(tel):
    root = tel.start_span("root", component="a", activate=True)
    child = tel.start_span("child", component="b")
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert child.trace_id == root.trace_id
    tel.end_span(child)
    tel.end_span(root)
    assert tel.counters()["open_spans"] == 0


def test_sibling_roots_get_distinct_traces(tel):
    a = tel.start_span("a", component="c")
    b = tel.start_span("b", component="c")
    assert a.trace_id != b.trace_id
    assert tel.trace_ids() == [a.trace_id, b.trace_id]


def test_explicit_parent_beats_ambient(tel):
    other = tel.start_span("other", component="c")
    ambient = tel.start_span("ambient", component="c", activate=True)
    child = tel.start_span("child", component="c", parent=other)
    assert child.parent_id == other.span_id
    assert child.trace_id == other.trace_id
    assert ambient.trace_id != other.trace_id


def test_parent_accepts_context_and_span(tel):
    parent = tel.start_span("p", component="c")
    via_span = tel.start_span("a", component="c", parent=parent)
    via_ctx = tel.start_span("b", component="c", parent=parent.context)
    assert via_span.parent_id == via_ctx.parent_id == parent.span_id


def test_span_ids_are_deterministic_counters(tel):
    spans = [tel.start_span(f"s{i}", component="c") for i in range(5)]
    assert [s.span_id for s in spans] == [1, 2, 3, 4, 5]


def _sleep(env, seconds):
    yield env.timeout(seconds)


def test_end_span_records_now_and_attributes(env, tel):
    span = tel.start_span("s", component="c", uid="t1")
    env.run(env.process(_sleep(env, 4.0)))
    tel.end_span(span, state="DONE")
    assert span.end == 4.0
    assert span.duration() == 4.0
    assert span.attributes == {"uid": "t1", "state": "DONE"}


def test_double_close_is_counted_not_applied(env, tel):
    span = tel.start_span("s", component="c")
    tel.end_span(span)
    first_end = span.end
    env.run(env.process(_sleep(env, 1.0)))
    tel.end_span(span)
    assert span.end == first_end
    assert tel.double_closes == 1


def test_open_span_duration_clamps_to_now(env, tel):
    span = tel.start_span("s", component="c")
    env.run(env.process(_sleep(env, 2.5)))
    assert span.duration() == 0.0  # no clock supplied
    assert span.duration(env.now) == 2.5
    assert tel.open_spans() == [span]


def test_activation_stack_pops_on_close(tel):
    with tel.span("outer", component="c") as outer:
        assert tel.current() == outer.context
        with tel.span("inner", component="c") as inner:
            assert tel.current() == inner.context
        assert tel.current() == outer.context
    assert tel.current() is None


def test_use_temporarily_switches_context(tel):
    ctx = SpanContext(trace_id=9, span_id=42)
    with tel.use(ctx):
        assert tel.current() == ctx
        child = tel.start_span("c", component="c")
        assert child.parent_id == 42
        assert child.trace_id == 9
    assert tel.current() is None


# -- process integration ----------------------------------------------


def test_spawned_process_inherits_context(env, tel):
    seen = {}

    def child():
        seen["ctx"] = tel.current()
        yield env.timeout(1.0)

    def parent():
        with tel.span("parent", component="c") as span:
            env.process(child())
            seen["parent"] = span.context
            yield env.timeout(2.0)

    env.run(env.process(parent()))
    assert seen["ctx"] == seen["parent"]


def test_span_closes_exactly_once_on_interrupt(env, tel):
    def victim():
        try:
            with tel.span("work", component="c"):
                yield env.timeout(100.0)
        except Interrupt:
            pass

    def killer(proc):
        yield env.timeout(3.0)
        proc.interrupt("cancel")

    proc = env.process(victim())
    env.process(killer(proc))
    env.run(proc)
    (span,) = tel.spans
    assert span.end == 3.0
    assert tel.double_closes == 0
    assert tel.counters()["open_spans"] == 0


def test_process_exit_drops_ambient_stack(env, tel):
    def worker():
        tel.start_span("w", component="c", activate=True)
        yield env.timeout(1.0)

    proc = env.process(worker())
    env.run(proc)
    assert proc not in tel._ambient


# -- bindings ---------------------------------------------------------


def test_bindings_are_durable_until_unbound(tel):
    span = tel.start_span("task", component="c")
    tel.bind("task.0", span)
    assert tel.binding("task.0") == span.context
    tel.end_span(span)
    assert tel.binding("task.0") == span.context  # survives close
    tel.unbind("task.0")
    assert tel.binding("task.0") is None


def test_counters_snapshot(tel):
    a = tel.start_span("a", component="c")
    tel.start_span("b", component="c")
    tel.end_span(a)
    tel.end_span(a)
    counters = tel.counters()
    assert counters == {
        "spans_started": 2,
        "spans_closed": 1,
        "open_spans": 1,
        "double_closes": 1,
        "traces": 2,
    }
