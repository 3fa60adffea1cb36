"""Chrome trace-event export, validation, flame summary, span table."""

from __future__ import annotations

import json

from repro.sim import Environment, Tracer
from repro.telemetry import (
    Telemetry,
    chrome_trace,
    component_tracks,
    flame_summary,
    merge_chrome_traces,
    render_span_table,
    save_chrome_trace,
    top_critical_spans,
    validate_chrome_trace,
)

US = 1e6


def _hub() -> Telemetry:
    """A small deterministic span tree on a bare environment.

    root(a) [0..10] -> child(b) [2..5]; plus an open span on track a.
    Times are driven via a trivial process.  The hub has no tracer.
    """
    env = Environment()
    tel = Telemetry(env, enabled=True)

    def build():
        root = tel.start_span("root", component="a", activate=True, uid="r")
        yield env.timeout(2.0)
        child = tel.start_span("child", component="b")
        yield env.timeout(3.0)
        tel.end_span(child)
        yield env.timeout(5.0)
        tel.end_span(root)
        tel.start_span("hanging", component="a")
        yield env.timeout(1.0)

    env.run(env.process(build()))
    return tel


def _events(doc, ph=None):
    return [
        e
        for e in doc["traceEvents"]
        if ph is None or e.get("ph") == ph
    ]


def test_chrome_trace_structure():
    doc = chrome_trace(_hub())
    assert validate_chrome_trace(doc) == []
    assert doc["displayTimeUnit"] == "ms"

    meta = _events(doc, "M")
    names = {e["name"] for e in meta}
    assert names == {"process_name", "thread_name"}
    assert component_tracks(doc) == ["a", "b"]

    complete = _events(doc, "X")
    by_name = {e["name"]: e for e in complete}
    root = by_name["root"]
    assert root["ts"] == 0.0 and root["dur"] == 10.0 * US
    assert root["cat"] == "a"
    assert root["args"]["uid"] == "r"
    assert "parent_id" not in root["args"]
    child = by_name["child"]
    assert child["ts"] == 2.0 * US and child["dur"] == 3.0 * US
    assert child["args"]["parent_id"] == root["args"]["span_id"]
    # The two components sit on distinct thread tracks.
    assert root["tid"] != child["tid"]


def test_open_spans_are_clamped_and_flagged():
    hub = _hub()
    doc = chrome_trace(hub)
    hanging = next(
        e for e in _events(doc, "X") if e["name"] == "hanging"
    )
    assert hanging["args"]["unfinished"] is True
    assert hanging["ts"] == 10.0 * US
    assert hanging["dur"] == 1.0 * US  # clamped to env.now
    # Export never mutates the span itself.
    assert [s for s in hub.spans if s.end is None][0].end is None


def test_tracer_records_become_instant_events():
    env = Environment()
    tel = Telemetry(env, enabled=True)
    tel.tracer = Tracer(env)

    def run():
        span = tel.start_span("task:task.0", component="rp-client")
        yield env.timeout(2.0)
        tel.tracer.record("rp.state", "task.0", state="DONE")
        tel.tracer.record("rp.pilot", "pilot.0", event="shutdown")
        tel.end_span(span)

    env.run(env.process(run()))
    doc = chrome_trace(tel)
    assert validate_chrome_trace(doc) == []
    assert component_tracks(doc) == ["rp-client", "tracer"]
    tids = {
        e["args"]["name"]: e["tid"]
        for e in _events(doc, "M")
        if e["name"] == "thread_name"
    }
    span_id = tel.spans[0].span_id
    state, pilot = _events(doc, "i")
    assert state["name"] == "rp.state:task.0"
    assert state["s"] == "t"
    assert state["ts"] == 2.0 * US
    assert state["tid"] == tids["rp-client"]
    assert state["args"] == {"state": "DONE", "span_id": span_id}
    assert pilot["name"] == "rp.pilot:pilot.0"
    assert pilot["tid"] == tids["tracer"]
    assert pilot["args"] == {"event": "shutdown"}
    # The export reads the tracer; it never writes back into it.
    assert tel.tracer.records[0].data == {"state": "DONE"}


def test_hub_without_tracer_exports_no_instant_events():
    hub = _hub()
    assert hub.tracer is None
    doc = chrome_trace(hub)
    assert _events(doc, "i") == []
    assert "tracer" not in component_tracks(doc)


def test_metrics_become_counter_events():
    doc = chrome_trace(_hub(), counters={"soma.client.published": 5.0})
    (counter,) = _events(doc, "C")
    assert counter["name"] == "soma.client.published"
    assert counter["args"] == {"value": 5.0}
    assert validate_chrome_trace(doc) == []


def test_merge_keeps_per_hub_pids():
    a, b = chrome_trace(_hub(), pid=1), chrome_trace(_hub(), pid=2)
    merged = merge_chrome_traces([a, b])
    assert validate_chrome_trace(merged) == []
    pids = {e["pid"] for e in merged["traceEvents"]}
    assert pids == {1, 2}
    assert len(merged["traceEvents"]) == len(a["traceEvents"]) * 2


def test_save_writes_compact_json(tmp_path):
    doc = chrome_trace(_hub())
    path = save_chrome_trace(tmp_path / "deep" / "trace.json", doc)
    text = path.read_text()
    assert text.endswith("\n")
    assert ": " not in text  # compact separators
    assert json.loads(text) == doc


def test_validator_rejects_malformed_documents():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]

    def problems(event):
        return validate_chrome_trace({"traceEvents": [event]})

    ok = {
        "name": "s",
        "cat": "c",
        "ph": "X",
        "ts": 0,
        "dur": 1,
        "pid": 1,
        "tid": 1,
        "args": {"span_id": 1},
    }
    assert problems(ok) == []
    assert problems(dict(ok, ph="Q"))  # unknown phase
    assert problems(dict(ok, name=""))  # empty name
    assert problems(dict(ok, pid="one"))  # non-int pid
    assert problems(dict(ok, ts=-5))  # negative timestamp
    assert problems(dict(ok, dur=None))  # X needs dur
    assert problems({**ok, "args": {"span_id": 1, "parent_id": 99}})
    assert problems(
        {"name": "i", "ph": "i", "ts": 0, "pid": 1, "tid": 1, "s": "q"}
    )
    assert problems(
        {"name": "c", "ph": "C", "ts": 0, "pid": 1, "tid": 1,
         "args": {"v": "NaNish"}}
    )
    assert problems(
        {"name": "bogus", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "x"}}
    )


def test_flame_summary_orders_by_self_time():
    text = flame_summary(_hub())
    lines = text.splitlines()
    assert lines[0].startswith("flame summary")
    rows = lines[3:]
    # root: dur 10 minus child 3 => self 7; child: 3; hanging: 1.
    assert rows[0].split()[:2] == ["a", "root"]
    assert rows[1].split()[:2] == ["b", "child"]
    assert rows[2].split()[:2] == ["a", "hanging"]
    assert "7.0000" in rows[0]
    assert "3.0000" in rows[1]


def test_top_critical_spans_ranked_by_self_time():
    env = Environment()
    tel = Telemetry(env, enabled=True)

    def build():
        with tel.span("root", component="a"):  # dur 10, self 4
            yield env.timeout(1.0)
            with tel.span("mid", component="b"):  # dur 6, self 1
                yield env.timeout(1.0)
                with tel.span("leaf", component="c"):  # dur 5, self 5
                    yield env.timeout(5.0)
            yield env.timeout(3.0)

    env.run(env.process(build()))
    rows = top_critical_spans(tel, k=2)
    assert [r["name"] for r in rows] == ["leaf", "root"]
    assert rows[0]["self_time"] == 5.0
    assert rows[1]["self_time"] == 4.0
    assert all(r["root"] == "root" for r in rows)
    assert top_critical_spans(tel, k=0) == []


def test_render_span_table_shapes():
    env = Environment()
    tel = Telemetry(env, enabled=True)
    tel.end_span(tel.start_span("x" * 40, component="c"))
    rows = top_critical_spans(tel)
    table = render_span_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == [
        "component", "span", "root", "start", "dur", "self",
    ]
    assert "..." in lines[2]  # long names are elided
    assert render_span_table([]).endswith("(no spans)")


def test_flame_summary_empty_hub():
    env = Environment()
    tel = Telemetry(env, enabled=True)
    assert "(no spans recorded)" in flame_summary(tel)


# -- against a real run ------------------------------------------------


def test_real_run_exports_validate(traced_ddmd):
    _result, hub = traced_ddmd
    doc = chrome_trace(hub)
    assert validate_chrome_trace(doc) == []
    tracks = component_tracks(doc)
    assert len(tracks) >= 4
    assert {"entk", "rp-client", "rp-agent", "soma-service"} <= set(tracks)


def test_real_run_instant_events_mirror_the_tracer(traced_ddmd):
    result, hub = traced_ddmd
    tracer = result.session.tracer
    assert hub.tracer is tracer
    doc = chrome_trace(hub)
    instants = _events(doc, "i")
    assert len(instants) == len(tracer.records)
    tracks = {
        e["tid"]: e["args"]["name"]
        for e in _events(doc, "M")
        if e["name"] == "thread_name"
    }
    task_spans = {
        span.attributes["uid"]: span
        for span in hub.spans
        if span.name.startswith("task:")
    }
    states = 0
    # Instants keep the tracer's order, one for one.
    for rec, event in zip(tracer.records, instants):
        assert event["name"] == f"{rec.category}:{rec.name}"
        if rec.category == "rp.state":
            span = task_spans[rec.name]
            assert tracks[event["tid"]] == span.component
            assert event["args"]["span_id"] == span.span_id
            states += 1
    assert states == len(tracer.select("rp.state")) > 0
