"""Statistics helpers shared by the experiment harness and benches."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Summary", "summarize", "percent_change"]


def _fmt(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.2f}"


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={_fmt(self.mean)} std={_fmt(self.std)} "
            f"min={_fmt(self.minimum)} p25={_fmt(self.p25)} "
            f"med={_fmt(self.median)} p75={_fmt(self.p75)} "
            f"max={_fmt(self.maximum)}"
        )


def summarize(values) -> Summary:
    """Summary statistics of a sequence.

    The order statistics of an empty sample do not exist, so they come
    back as NaN (rendered as ``n/a`` by the report helpers) — an
    all-zero ``Summary`` would be indistinguishable from a genuine
    all-zero sample.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        nan = math.nan
        return Summary(0, nan, nan, nan, nan, nan, nan, nan)
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=0)),
        minimum=float(arr.min()),
        p25=float(np.percentile(arr, 25)),
        median=float(np.percentile(arr, 50)),
        p75=float(np.percentile(arr, 75)),
        maximum=float(arr.max()),
    )


def percent_change(baseline: float, value: float) -> float:
    """(value - baseline) / baseline × 100; positive = overhead.

    A zero baseline has no meaningful relative change: returns NaN
    (rendered as ``n/a``) rather than silently reporting zero overhead.
    """
    if baseline == 0:
        return math.nan
    return (value - baseline) / baseline * 100.0
