"""Tests for the plain-text table/figure renderers."""

from __future__ import annotations

import math

from repro.analysis.report import (
    fmt,
    fmt_percent,
    render_boxes,
    render_manifest,
    render_series,
    render_table,
    sparkline,
)


def test_fmt_handles_nan_and_specs():
    assert fmt(1.2345) == "1.23"
    assert fmt(1.2345, ".1f") == "1.2"
    assert fmt(math.nan) == "n/a"
    assert fmt_percent(4.0) == "+4.00%"
    assert fmt_percent(-5.5) == "-5.50%"
    assert fmt_percent(math.nan) == "n/a"


def test_render_table_alignment_and_title():
    text = render_table(
        ["name", "n"], [["a", 1], ["long-name", 22]], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    # All rows pad to equal width.
    assert len({len(line) for line in lines[1:]}) == 1
    assert "long-name | 22" in lines[-1]
    assert set(lines[2]) <= {"-", "+"}


def test_sparkline_shapes():
    assert sparkline([]) == ""
    flat = sparkline([2.0, 2.0, 2.0])
    assert len(flat) == 3 and len(set(flat)) == 1
    ramp = sparkline([0.0, 0.5, 1.0])
    assert len(ramp) == 3
    assert ramp[0] < ramp[1] < ramp[2]
    # Explicit bounds clamp out-of-range values instead of raising.
    assert len(sparkline([5.0, -5.0], lo=0.0, hi=1.0)) == 2


def test_render_series():
    assert render_series("s", [], []) == "s: (empty)"
    text = render_series("s", [0.0, 10.0], [1.0, 3.0], unit="s")
    assert text.startswith("s: ")
    assert "[1.00..3.00]s" in text
    assert "x=[0..10]" in text


def test_render_boxes_includes_stats_and_nan():
    text = render_boxes({"g": [1.0, 2.0, 3.0], "empty": []}, title="B")
    lines = text.splitlines()
    assert lines[0] == "B"
    g_row = next(line for line in lines if line.startswith("g "))
    assert "2.0" in g_row  # median
    empty_row = next(line for line in lines if line.startswith("empty"))
    assert "n/a" in empty_row


def _manifest():
    return {
        "jobs": 2,
        "code_version": "c0ffee" * 8,
        "cells": [
            {
                "key": "cell-a",
                "family": "openfoam",
                "seed": 3,
                "source": "computed",
                "wall_seconds": 1.25,
                "result_digest": "abc123def4567890",
            },
            {
                "key": "cell-b",
                "family": "ddmd",
                "seed": 5,
                "source": "cached",
                "wall_seconds": 0.5,
                "result_digest": "feed" * 8,
            },
        ],
        "failed": [{"key": "cell-c", "digest": "d", "error": "boom"}],
        "pending": ["cell-d"],
        "counts": {
            "total": 4,
            "computed": 1,
            "cache_hits": 1,
            "failed": 1,
            "pending": 1,
        },
        "matrix_digest": "m" * 64,
        "wall_clock_seconds": 2.0,
        "serial_seconds_estimate": 4.0,
        "speedup_vs_serial": 2.0,
    }


def test_render_manifest_merges_all_cell_states():
    text = render_manifest(_manifest())
    assert "cell-a" in text and "computed" in text
    assert "cell-b" in text and "cached" in text
    assert "cell-c" in text and "FAILED" in text
    assert "cell-d" in text and "pending" in text
    # Digests are truncated for the table.
    assert "abc123def456" in text
    assert "abc123def4567890" not in text
    assert "completed 1 computed + 1 cache hits of 4 cells" in text
    assert "(1 failed, 1 pending)" in text
    assert "speedup 2.00x" in text
    assert "matrix digest " + "m" * 64 in text
