"""Offline analysis: timelines, statistics, overhead, text reports."""

from .overhead import OverheadResult, compare_runtimes, makespan_overhead
from .report import (
    fmt,
    fmt_percent,
    render_boxes,
    render_series,
    render_table,
    sparkline,
)
from .stats import Summary, group_by, percent_change, summarize
from .timeline import (
    BOOTSTRAP,
    CoreInterval,
    RUNNING,
    ResourceTimeline,
    SCHEDULING,
    build_timeline,
)

__all__ = [
    "BOOTSTRAP",
    "CoreInterval",
    "OverheadResult",
    "RUNNING",
    "ResourceTimeline",
    "SCHEDULING",
    "Summary",
    "build_timeline",
    "compare_runtimes",
    "fmt",
    "fmt_percent",
    "group_by",
    "makespan_overhead",
    "percent_change",
    "render_boxes",
    "render_series",
    "render_table",
    "sparkline",
    "summarize",
]
