"""Threshold calibration from clean baseline sweeps.

The rule is deliberately simple and interpretable: for each detector,
run every clean scenario across the calibration seeds, take the *worst*
value its metric reaches on those healthy runs, multiply by a safety
margin, and floor the result (a clean metric of ~zero must not yield a
hair-trigger threshold).  ``python -m repro bottleneck --calibrate``
prints the result; :data:`~repro.analysis.bottleneck.thresholds.DEFAULT_THRESHOLDS`
holds the values baked from this procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import DetectionContext
from .detectors import DETECTORS
from .scenarios import CLEAN_SCENARIOS, run_scenario
from .thresholds import Thresholds

__all__ = ["CalibrationReport", "calibrate"]

#: Safety factor between the worst clean value and the threshold.
DEFAULT_MARGIN = 1.5

#: Seeds the clean scenarios are swept over.
DEFAULT_SEEDS = (3, 17)


@dataclass(slots=True)
class CalibrationReport:
    """What calibration observed and what it derived."""

    thresholds: Thresholds
    #: metric field -> worst clean value across scenarios x seeds.
    observed: dict = field(default_factory=dict)
    #: metric field -> per-(scenario, seed) values, for inspection.
    samples: dict = field(default_factory=dict)
    margin: float = DEFAULT_MARGIN
    seeds: tuple = DEFAULT_SEEDS

    def render(self) -> str:
        lines = [
            f"calibration over {list(CLEAN_SCENARIOS)} x seeds "
            f"{list(self.seeds)} (margin {self.margin:g}x):"
        ]
        for detector in DETECTORS:
            metric = detector.metric_field
            observed = self.observed.get(metric, 0.0)
            lines.append(
                f"  {metric:<26} clean max {observed:>10.4g}  "
                f"floor {detector.metric_floor:>8.4g}  -> "
                f"{getattr(self.thresholds, metric):.4g}"
            )
        return "\n".join(lines)


def calibrate(
    seeds: tuple = DEFAULT_SEEDS,
    margin: float = DEFAULT_MARGIN,
) -> CalibrationReport:
    """Derive thresholds from the clean scenarios.

    The default thresholds supply the structural (non-calibrated)
    fields; only the fields named by the detectors' ``metric_field``
    are replaced.
    """
    observed: dict = {d.metric_field: 0.0 for d in DETECTORS}
    samples: dict = {d.metric_field: {} for d in DETECTORS}
    for name in CLEAN_SCENARIOS:
        for seed in seeds:
            result = run_scenario(name, seed=seed)
            ctx = DetectionContext.from_result(result)
            for detector in DETECTORS:
                value = detector.observe(ctx)
                samples[detector.metric_field][f"{name}:s{seed}"] = value
                observed[detector.metric_field] = max(
                    observed[detector.metric_field], value
                )
    updates = {
        d.metric_field: max(d.metric_floor, observed[d.metric_field] * margin)
        for d in DETECTORS
    }
    return CalibrationReport(
        thresholds=Thresholds().with_updates(**updates),
        observed=observed,
        samples=samples,
        margin=margin,
        seeds=tuple(seeds),
    )
