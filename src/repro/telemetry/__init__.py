"""repro.telemetry — causal span tracing, run counters, and exporters.

First-class observability for the simulated stack itself: spans with
cross-component context propagation (the single causal tree of one
task's lifecycle across EnTK, RP, raptor, and SOMA), one read of a
finished run's counters (:func:`run_counters`), and exporters to Chrome
trace-event JSON (Perfetto-loadable), a plain-text flame summary, and a
top-spans table.

Spans carry intervals only.  Point events have one home, the session's
:class:`~repro.sim.trace.Tracer`; the Chrome exporter reads it after the
run to place each record on the track of the span it belongs to.

Telemetry is **zero-perturbation** by construction: enabling it changes
no simulated event, draws no random number, and leaves every result
digest and kernel counter byte-identical — enforced by the differential
regression battery in ``tests/telemetry``.
"""

from .export import (
    chrome_trace,
    component_tracks,
    flame_summary,
    merge_chrome_traces,
    render_span_table,
    run_counters,
    save_chrome_trace,
    top_critical_spans,
    validate_chrome_trace,
)
from .spans import Span, SpanContext, Telemetry

__all__ = [
    "Span",
    "SpanContext",
    "Telemetry",
    "chrome_trace",
    "run_counters",
    "merge_chrome_traces",
    "save_chrome_trace",
    "validate_chrome_trace",
    "component_tracks",
    "flame_summary",
    "top_critical_spans",
    "render_span_table",
]
