"""Plain-text rendering of tables and figure data.

Every benchmark prints the paper's table rows / figure series through
these helpers, so ``pytest benchmarks/ --benchmark-only`` output reads
like the paper's evaluation section.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "fmt",
    "fmt_percent",
    "render_table",
    "render_series",
    "render_boxes",
    "render_manifest",
    "sparkline",
]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def fmt(value: float, spec: str = ".2f") -> str:
    """Format a number, rendering NaN as ``n/a``.

    NaN is what the stats helpers return for undefined quantities (the
    order statistics of an empty sample, a percent change against a
    zero baseline); every table/figure renderer funnels floats through
    here so those show up as ``n/a`` instead of ``nan`` or a fake 0.
    """
    if isinstance(value, float) and math.isnan(value):
        return "n/a"
    return format(value, spec)


def fmt_percent(value: float, spec: str = "+.2f") -> str:
    """Format a percentage with sign, rendering NaN as ``n/a`` (no %)."""
    if isinstance(value, float) and math.isnan(value):
        return "n/a"
    return format(value, spec) + "%"


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width text table."""
    columns = [
        [str(h)] + [str(row[i]) for row in rows] for i, h in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            " | ".join(str(c).ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def sparkline(values: Sequence[float], lo: float | None = None,
              hi: float | None = None) -> str:
    """Unicode sparkline of a numeric series."""
    vals = list(values)
    if not vals:
        return ""
    lo = min(vals) if lo is None else lo
    hi = max(vals) if hi is None else hi
    span = hi - lo
    if span <= 0:
        return _BLOCKS[4] * len(vals)
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[max(0, min(len(_BLOCKS) - 1, idx))])
    return "".join(out)


def render_series(
    name: str, xs: Sequence[float], ys: Sequence[float], unit: str = ""
) -> str:
    """One labelled series with a sparkline and endpoints."""
    if not ys:
        return f"{name}: (empty)"
    return (
        f"{name}: {sparkline(ys)}  "
        f"[{min(ys):.2f}..{max(ys):.2f}]{unit} over x=[{xs[0]:g}..{xs[-1]:g}]"
    )


def render_boxes(
    groups: dict[str, Sequence[float]], unit: str = "s", title: str = ""
) -> str:
    """Text 'box plot': per-group min/p25/median/p75/max."""
    from .stats import summarize

    rows = []
    for name, values in groups.items():
        s = summarize(values)
        rows.append(
            [
                name,
                s.count,
                fmt(s.minimum, ".1f"),
                fmt(s.p25, ".1f"),
                fmt(s.median, ".1f"),
                fmt(s.p75, ".1f"),
                fmt(s.maximum, ".1f"),
                fmt(s.mean, ".1f"),
            ]
        )
    return render_table(
        ["group", "n", "min", "p25", "median", "p75", "max", f"mean ({unit})"],
        rows,
        title=title,
    )


def render_manifest(manifest: dict) -> str:
    """Human-readable view of a sweep manifest (per-cell merge table).

    Cells arrive sorted by key from the runner, so the rendering is
    independent of the order the pool completed them in.
    """
    rows = []
    for entry in manifest["cells"]:
        rows.append(
            [
                entry["key"],
                entry["family"],
                entry["seed"],
                entry["source"],
                fmt(entry["wall_seconds"], ".2f"),
                entry["result_digest"][:12],
            ]
        )
    for failure in manifest.get("failed", ()):
        rows.append([failure["key"], "-", "-", "FAILED", "-", "-"])
    for key in manifest.get("pending", ()):
        rows.append([key, "-", "-", "pending", "-", "-"])
    counts = manifest["counts"]
    lines = [
        render_table(
            ["cell", "family", "seed", "source", "wall (s)", "result digest"],
            rows,
            title=f"sweep manifest ({manifest['jobs']} job(s), "
            f"code {manifest['code_version'][:12]})",
        ),
        f"completed {counts['computed']} computed"
        f" + {counts['cache_hits']} cache hits"
        f" of {counts['total']} cells"
        f" ({counts['failed']} failed, {counts['pending']} pending)",
        f"wall clock {fmt(manifest['wall_clock_seconds'], '.2f')} s"
        f" vs serial estimate "
        f"{fmt(manifest['serial_seconds_estimate'], '.2f')} s"
        f" (speedup {fmt(manifest['speedup_vs_serial'], '.2f')}x)",
        f"matrix digest {manifest['matrix_digest']}",
    ]
    return "\n".join(lines)
