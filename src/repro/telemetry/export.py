"""Exporters: Chrome trace-event JSON and a plain-text flame summary.

The Chrome trace-event format is the lingua franca of timeline viewers:
the emitted JSON loads directly in Perfetto (ui.perfetto.dev) and
``chrome://tracing``.  Spans become ``X`` (complete) events on one
thread track per component, the records of the hub's tracer become
``i`` (instant) events, and the run's counters (:func:`run_counters`)
become ``C`` (counter) events; ``M`` metadata events name the process
and the tracks.

Instant events are a view of the tracer, derived here at export time:
a record named after a task uid lands on the track of that task's
``task:<uid>`` span (with ``args.span_id``), every other record on one
``tracer`` track.

Timestamps are simulated seconds scaled to microseconds (the format's
unit), so one simulated second reads as one second in the viewer.

``validate_chrome_trace`` is a hand-rolled structural validator (the
container ships no jsonschema); the export tests and the CI trace-smoke
step run every emitted document through it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.harness import WorkflowResult
    from ..sim.trace import Tracer
    from .spans import Span, Telemetry

__all__ = [
    "chrome_trace",
    "run_counters",
    "merge_chrome_traces",
    "save_chrome_trace",
    "validate_chrome_trace",
    "flame_summary",
    "top_critical_spans",
    "render_span_table",
]

#: Chrome trace-event timestamps are microseconds.
_US = 1e6


def _component_order(spans: "list[Span]") -> dict[str, int]:
    """Component -> tid, in first-seen creation order (deterministic)."""
    tids: dict[str, int] = {}
    for span in spans:
        if span.component not in tids:
            tids[span.component] = len(tids) + 1
    return tids


def chrome_trace(
    telemetry: "Telemetry",
    counters: Mapping[str, float] | None = None,
    pid: int = 1,
    process_name: str = "repro-sim",
) -> dict[str, Any]:
    """Export one hub's spans (+ optional counters) as a trace document.

    Each ``counters`` entry becomes one ``C`` event at ``env.now``, in
    the mapping's order.

    Open spans are clamped to ``env.now`` for display — the span object
    itself is *not* mutated — and flagged ``unfinished`` in their args.
    """
    now = telemetry.env.now
    tids = _component_order(telemetry.spans)
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for component, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": component},
            }
        )
    for span in telemetry.spans:
        tid = tids[span.component]
        end = span.end if span.end is not None else max(now, span.start)
        args: dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.end is None:
            args["unfinished"] = True
        for key, value in span.attributes.items():
            args.setdefault(key, value)
        events.append(
            {
                "name": span.name,
                "cat": span.component,
                "ph": "X",
                "ts": span.start * _US,
                "dur": (end - span.start) * _US,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    if telemetry.tracer is not None:
        events.extend(_instant_events(telemetry.spans, telemetry.tracer, tids, pid))
    if counters is not None:
        for name, value in counters.items():
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": now * _US,
                    "pid": pid,
                    "tid": 0,
                    "args": {"value": value},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def run_counters(result: "WorkflowResult") -> dict[str, float]:
    """A finished run's counters as floats, sorted by name.

    Kernel scheduling counters (``kernel.*``), tracer records per
    category, RP profile-store, updater, scheduler and executor counts,
    and SOMA client and service accounting.  ``soma.client.*`` sums
    every SOMA client the run built.

    Reads attributes only, so it never changes the run and may be
    called at any point after it.
    """
    counters: dict[str, float] = {}

    def add(name: str, amount: float) -> None:
        counters[name] = counters.get(name, 0.0) + amount

    session = result.session
    for key, value in session.env.kernel_counters().items():
        counters[f"kernel.{key}"] = float(value)
    for category in session.tracer.categories():
        add(f"trace.records.{category}", session.tracer.count(category))
    profiles = session.profiles
    add("rp.profiles.records", len(profiles))
    add("rp.profiles.reads", profiles.reads)
    add("rp.profiles.writes", profiles.writes)
    add("rp.profiles.rejected", profiles.rejected)
    client = result.client
    agent = None
    if client.pilot is not None:
        agent = client.pilot_manager.agents.get(client.pilot.uid)
    if agent is not None:
        add("rp.updater.dropped_records", agent.updater.dropped_records)
        if agent.scheduler is not None:
            add("rp.scheduler.scheduled", agent.scheduler.scheduled_count)
        if agent.executor is not None:
            add("rp.executor.launched", agent.executor.launched)
            add("rp.executor.completed", agent.executor.completed)
            add("rp.executor.failed", agent.executor.failed)
    for soma in session.soma_clients:
        add("soma.client.published", soma.published)
        add("soma.client.dropped", soma.dropped)
        add("soma.client.gaps", soma.gaps)
        add("soma.client.gap_seconds", soma.gap_seconds)
        rpc = soma._rpc
        add("soma.client.rpc.calls", rpc.calls)
        add("soma.client.rpc.failures", rpc.failures)
        add("soma.client.rpc.retries", rpc.retries)
        add("soma.client.rpc.timeouts", rpc.timeouts)
    deployment = result.deployment
    if deployment.enabled:
        service = deployment.service_model
        if service is not None:
            add("soma.service.publishes", service.publishes)
            for namespace, server in service.servers.items():
                stats = server.stats
                prefix = f"soma.service.{namespace}"
                add(f"{prefix}.calls", stats.calls)
                add(f"{prefix}.errors", stats.errors)
                add(f"{prefix}.bytes", stats.bytes)
                counters[f"{prefix}.busy_time"] = float(stats.busy_time)
                counters[f"{prefix}.queue_time"] = float(stats.queue_time)
    return dict(sorted(counters.items()))


def _instant_events(
    spans: "list[Span]", tracer: "Tracer", tids: dict[str, int], pid: int
) -> list[dict[str, Any]]:
    """One ``i`` event per tracer record, on its task span's track.

    Records with no task span share a ``tracer`` track, announced by a
    thread_name event only when some record lands on it.
    """
    task_spans = {
        span.name[5:]: span for span in spans if span.name.startswith("task:")
    }
    tracer_tid = len(tids) + 1
    on_tracer_track = False
    events: list[dict[str, Any]] = []
    for rec in tracer.records:
        span = task_spans.get(rec.name)
        if span is None:
            cat, tid, args = "tracer", tracer_tid, dict(rec.data)
            on_tracer_track = True
        else:
            cat, tid = span.component, tids[span.component]
            args = dict(rec.data, span_id=span.span_id)
        events.append(
            {
                "name": f"{rec.category}:{rec.name}",
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": rec.time * _US,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    if not on_tracer_track:
        return events
    track = {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tracer_tid,
        "args": {"name": "tracer"},
    }
    return [track, *events]


def merge_chrome_traces(documents: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-hub documents into one (each hub keeps its pid)."""
    events: list[dict[str, Any]] = []
    for doc in documents:
        events.extend(doc["traceEvents"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_chrome_trace(path: "str | Path", document: dict[str, Any]) -> Path:
    """Write a trace document (compact JSON) and return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8"
    )
    return path


#: Phases the validator knows; everything else is rejected.
_KNOWN_PHASES = {"X", "i", "C", "M", "B", "E"}


def validate_chrome_trace(document: Any) -> list[str]:
    """Structural validation of a trace document; returns problems.

    An empty list means the document is a well-formed Chrome trace:
    required top-level shape, required keys per event phase, numeric
    non-negative timestamps/durations, integer pid/tid, dict args, and
    consistent parent/span id references among ``X`` events.
    """
    problems: list[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, not an object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    span_ids: set[int] = set()
    parent_refs: list[tuple[int, int]] = []
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing/empty name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key} must be an int")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: args must be an object")
        if ph == "M":
            if event["name"] not in ("process_name", "thread_name"):
                problems.append(f"{where}: unknown metadata {event['name']!r}")
            if not isinstance(args, dict) or "name" not in args:
                problems.append(f"{where}: metadata needs args.name")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative number")
            if not isinstance(event.get("cat"), str):
                problems.append(f"{where}: X events need a cat")
            if isinstance(args, dict):
                span_id = args.get("span_id")
                if isinstance(span_id, int):
                    span_ids.add(span_id)
                parent = args.get("parent_id")
                if isinstance(parent, int):
                    parent_refs.append((index, parent))
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant events need scope s")
        if ph == "C":
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: counter events need args values")
            elif not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: counter args must be numeric")
    for index, parent in parent_refs:
        if parent not in span_ids:
            problems.append(
                f"traceEvents[{index}]: dangling parent_id {parent}"
            )
    return problems


def component_tracks(document: dict[str, Any]) -> list[str]:
    """Component track names announced by thread_name metadata."""
    return [
        event["args"]["name"]
        for event in document.get("traceEvents", [])
        if isinstance(event, dict)
        and event.get("ph") == "M"
        and event.get("name") == "thread_name"
    ]


# -- flame summary ----------------------------------------------------


def _self_times(telemetry: "Telemetry") -> dict[int, float]:
    """span_id -> self time (duration minus direct children)."""
    now = telemetry.env.now
    self_time = {
        span.span_id: span.duration(now) for span in telemetry.spans
    }
    for span in telemetry.spans:
        if span.parent_id is not None and span.parent_id in self_time:
            self_time[span.parent_id] -= span.duration(now)
    return self_time


def flame_summary(telemetry: "Telemetry", top: int = 20) -> str:
    """Plain-text flame profile aggregated by (component, span name).

    Rows are sorted by aggregate self time (descending, then name) —
    the same ordering every run, so the output goldens cleanly.
    """
    now = telemetry.env.now
    self_times = _self_times(telemetry)
    rows: dict[tuple[str, str], list[float]] = {}
    for span in telemetry.spans:
        key = (span.component, span.name)
        entry = rows.setdefault(key, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration(now)
        entry[2] += self_times[span.span_id]
    ordered = sorted(
        rows.items(), key=lambda item: (-item[1][2], item[0])
    )[: max(0, top)]
    lines = [
        "flame summary (by self time, simulated seconds)",
        f"{'component':<14} {'span':<34} {'count':>6} "
        f"{'total':>12} {'self':>12}",
        "-" * 82,
    ]
    for (component, name), (count, total, self_t) in ordered:
        shown = name if len(name) <= 34 else name[:31] + "..."
        lines.append(
            f"{component:<14} {shown:<34} {count:>6d} "
            f"{total:>12.4f} {self_t:>12.4f}"
        )
    if not rows:
        lines.append("(no spans recorded)")
    return "\n".join(lines)


# -- top spans table --------------------------------------------------


def top_critical_spans(telemetry: "Telemetry", k: int = 10) -> list[dict]:
    """The k spans that dominate the run, ranked by self time.

    Self time is a span's duration minus its direct children's — the
    part of the interval no finer-grained span explains.  This is the
    per-span view of the critical path: the rows tell you where
    simulated time actually went, not merely which spans were widest.
    """
    now = telemetry.env.now
    self_times = _self_times(telemetry)
    by_id = {span.span_id: span for span in telemetry.spans}

    def root_of(span: "Span") -> "Span":
        seen = 0
        while span.parent_id is not None and seen < len(by_id):
            parent = by_id.get(span.parent_id)
            if parent is None:
                break
            span = parent
            seen += 1
        return span

    ranked = sorted(
        telemetry.spans,
        key=lambda s: (-self_times[s.span_id], s.span_id),
    )[: max(0, k)]
    return [
        {
            "component": span.component,
            "name": span.name,
            "start": span.start,
            "duration": span.duration(now),
            "self_time": self_times[span.span_id],
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "root": root_of(span).name,
            "closed": span.closed,
        }
        for span in ranked
    ]


def render_span_table(rows: list[dict]) -> str:
    """Fixed-width table of :func:`top_critical_spans` rows."""
    lines = [
        f"{'component':<14} {'span':<30} {'root':<22} "
        f"{'start':>10} {'dur':>10} {'self':>10}",
        "-" * 101,
    ]
    for row in rows:
        name = row["name"]
        if len(name) > 30:
            name = name[:27] + "..."
        root = row["root"]
        if len(root) > 22:
            root = root[:19] + "..."
        lines.append(
            f"{row['component']:<14} {name:<30} {root:<22} "
            f"{row['start']:>10.2f} {row['duration']:>10.2f} "
            f"{row['self_time']:>10.2f}"
        )
    if not rows:
        lines.append("(no spans)")
    return "\n".join(lines)
