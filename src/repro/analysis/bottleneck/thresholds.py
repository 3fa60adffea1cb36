"""Calibrated detector thresholds.

Structural constants (what counts as "saturated", how much pending
work marks a stall) are fixed by the platform model; the *calibrated*
fields are derived from clean baseline sweeps by
:func:`repro.analysis.bottleneck.calibrate.calibrate`: the maximum of
each detector's clean-run metric across scenarios × seeds, times a
safety margin, floored so a near-zero clean signal cannot produce a
hair-trigger threshold.  :data:`DEFAULT_THRESHOLDS` holds the values
baked from the repo's clean scenarios (regenerate with
``python -m repro bottleneck --calibrate``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

__all__ = ["Thresholds", "DEFAULT_THRESHOLDS"]


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Every tunable the built-in detectors consult."""

    # -- structural (platform truths, not calibrated) -------------------
    #: CPU utilization at/above which a sample counts as saturated.
    cpu_saturated_level: float = 0.9
    #: Pending tasks at/above which a no-progress interval is a stall.
    stall_min_pending: float = 1.0

    # -- calibrated (clean-run max × margin, floored) -------------------
    # Baked from `calibrate()` over the clean scenarios × seeds (3, 17)
    # at margin 1.5: clean maxima were 90.2 s sustained saturation
    # (clean-mpi's 82-rank solve), zero RPC queue wait, 1.189 imbalance,
    # and zero stall.
    #: Seconds of sustained saturation before CPU oversubscription fires.
    cpu_sustained_seconds: float = 135.3
    #: Mean RPC queue wait (s) before ingest queueing fires.
    rpc_mean_queue_seconds: float = 0.05
    #: max/mean per-rank compute ratio before load imbalance fires.
    imbalance_ratio: float = 1.784
    #: Seconds without completions (with work pending) before
    #: scheduler starvation fires.
    stall_seconds: float = 240.0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def with_updates(self, **kwargs) -> "Thresholds":
        return replace(self, **kwargs)


DEFAULT_THRESHOLDS = Thresholds()
