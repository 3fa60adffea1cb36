"""Online bottleneck detection over SOMA's time-indexed data.

The subsystem turns the observability stack from record-everything
into act-on-it (ROADMAP item 3): rule-tree detectors over the
namespace stores and service accounting emit interpretable
:class:`Finding` records, thresholds are calibrated from clean
baseline sweeps, and findings feed the adaptive layer through
:class:`repro.adaptive.DetectionDrivenPolicy`.

Typical offline use::

    from repro.analysis.bottleneck import DetectionContext, detect_all
    ctx = DetectionContext.from_result(result)
    findings = detect_all(ctx)
"""

from .calibrate import CalibrationReport, calibrate
from .context import DetectionContext
from .detectors import (
    DETECTORS,
    CpuOversubscriptionDetector,
    Detector,
    LoadImbalanceDetector,
    RpcQueueingDetector,
    SchedulerStarvationDetector,
    detect_all,
)
from .findings import KINDS, Finding, render_findings
from .scenarios import CLEAN_SCENARIOS, SCENARIOS, Scenario, run_scenario
from .thresholds import DEFAULT_THRESHOLDS, Thresholds

__all__ = [
    "CalibrationReport",
    "calibrate",
    "DetectionContext",
    "Detector",
    "DETECTORS",
    "CpuOversubscriptionDetector",
    "RpcQueueingDetector",
    "LoadImbalanceDetector",
    "SchedulerStarvationDetector",
    "detect_all",
    "KINDS",
    "Finding",
    "render_findings",
    "Scenario",
    "SCENARIOS",
    "CLEAN_SCENARIOS",
    "run_scenario",
    "DEFAULT_THRESHOLDS",
    "Thresholds",
]
