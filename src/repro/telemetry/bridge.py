"""Bridge between the flat :class:`~repro.sim.trace.Tracer` log and spans.

Two directions:

* **Tracer → spans**: :func:`install_tracer_sink` hooks the tracer's
  record sink so every stored record is *also* attached as a point
  event on the causally right span — task-uid records land on the
  task's bound span, everything else on the innermost active span.  No
  subsystem logs twice: the tracer remains the single flat log, and
  spans carry references into it, not copies of subsystem state.
* **Spans → TraceRecords**: :func:`spans_to_trace_records` renders the
  span tree as ordinary ``telemetry.span`` records so the existing
  analysis helpers (:mod:`repro.analysis.timeline`) consume spans
  natively.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.trace import TraceRecord
from .spans import Span, Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.trace import Tracer

__all__ = [
    "install_tracer_sink",
    "spans_to_trace_records",
    "top_critical_spans",
    "render_span_table",
]

#: Trace categories whose record *name* is a task uid — routed to the
#: task's bound span rather than the ambient one.
_TASK_CATEGORIES = frozenset(
    {"rp.state", "rp.event", "rp.alloc", "rp.free"}
)


def install_tracer_sink(telemetry: Telemetry, tracer: "Tracer") -> None:
    """Route every stored tracer record onto the right span.

    A record whose category names tasks is attached to the span bound
    to its task uid; other records go to the innermost active span of
    the recording process.  Records with no causal home are counted in
    ``telemetry.dropped_events`` — not silently lost.
    """
    if not telemetry.enabled:
        return

    def sink(record: TraceRecord) -> None:
        span = None
        if record.category in _TASK_CATEGORIES:
            ctx = telemetry.binding(record.name)
            if ctx is not None:
                span = telemetry._open.get(ctx.span_id)
        if span is None:
            ctx = telemetry.current()
            if ctx is not None:
                span = telemetry._open.get(ctx.span_id)
        if span is None:
            telemetry.dropped_events += 1
            return
        span.events.append(
            (record.time, f"{record.category}:{record.name}", record.data)
        )

    tracer.sink = sink


def spans_to_trace_records(telemetry: Telemetry) -> list[TraceRecord]:
    """Render spans as flat ``telemetry.span`` records (start-ordered)."""
    now = telemetry.env.now
    records = [
        TraceRecord(
            time=span.start,
            category="telemetry.span",
            name=f"{span.component}:{span.name}",
            data={
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "component": span.component,
                "span_name": span.name,
                "start": span.start,
                "end": span.end,
                "duration": span.duration(now),
                "closed": span.closed,
            },
        )
        for span in telemetry.spans
    ]
    records.sort(key=lambda rec: (rec.time, rec.data["span_id"]))
    return records


def top_critical_spans(telemetry: Telemetry, k: int = 10) -> list[dict]:
    """The k spans that dominate the run, ranked by self time.

    Self time is a span's duration minus its direct children's — the
    part of the interval no finer-grained span explains.  This is the
    per-span view of the critical path: the rows tell you where
    simulated time actually went, not merely which spans were widest.
    """
    from .export import _self_times

    now = telemetry.env.now
    self_times = _self_times(telemetry)
    by_id = {span.span_id: span for span in telemetry.spans}

    def root_of(span: Span) -> Span:
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
