"""Monitoring-overhead accounting (the Fig 11 comparison).

Compares pipeline-runtime distributions between a baseline ("none")
run and monitored runs, producing the percentage overheads the paper
reports: "approximately 1.4, 3.4, 3.2, and 4.6 percent runtime
overhead for 64, 128, 256, and 512 nodes" for frequent-exclusive, and
speedups for the shared configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .stats import percent_change, summarize

__all__ = ["OverheadResult", "compare_runtimes"]


@dataclass(frozen=True, slots=True)
class OverheadResult:
    """Overhead of one configuration vs. the baseline."""

    config: str
    baseline_mean: float
    config_mean: float
    overhead_percent: float

    @property
    def is_speedup(self) -> bool:
        return self.overhead_percent < 0


def compare_runtimes(
    baseline: list[float], monitored: dict[str, list[float]]
) -> list[OverheadResult]:
    """Per-configuration mean-runtime overhead vs. baseline."""
    base = summarize(baseline)
    out = []
    for config, values in monitored.items():
        s = summarize(values)
        out.append(
            OverheadResult(
                config=config,
                baseline_mean=base.mean,
                config_mean=s.mean,
                overhead_percent=percent_change(base.mean, s.mean),
            )
        )
    return out
