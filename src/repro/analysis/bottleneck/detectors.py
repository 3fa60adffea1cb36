"""The rule-tree detectors: one class per bottleneck signature.

Each detector pairs two views of the same metric:

* :meth:`~Detector.observe` — the scalar "how bad did it get" metric
  on an arbitrary run; calibration takes its max over clean runs.
* :meth:`~Detector.detect` — the thresholded rule producing
  :class:`~repro.analysis.bottleneck.findings.Finding` records.

The signatures come from the paper's own observations plus the
RADICAL-Pilot leadership-class characterization (PAPERS.md): CPU
starvation/oversubscription from the hardware namespace, SOMA RPC
ingest queueing from service accounting, per-rank load imbalance from
TAU profiles, and scheduler starvation / throughput collapse from the
RP monitor's summary series.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ...soma.analysis import (
    cpu_utilization_series,
    imbalance_ratio,
    task_breakdowns,
    workflow_summary_series,
)
from ...soma.namespaces import HARDWARE, PERFORMANCE, WORKFLOW
from ...soma.sharding import registry_name
from .context import DetectionContext
from .findings import Finding
from .thresholds import DEFAULT_THRESHOLDS, Thresholds

__all__ = [
    "Detector",
    "CpuOversubscriptionDetector",
    "RpcQueueingDetector",
    "LoadImbalanceDetector",
    "SchedulerStarvationDetector",
    "DETECTORS",
    "detect_all",
    "observe_all",
]


class Detector:
    """Base interface; subclasses fill in the class attributes."""

    #: Detector name (stable identifier in findings and reports).
    name: str = ""
    #: Finding kind this detector emits.
    kind: str = ""
    #: The :class:`Thresholds` field this detector calibrates.
    metric_field: str = ""
    #: Calibration floor: the threshold never drops below this even
    #: when the clean-run metric is ~zero.
    metric_floor: float = 0.0

    def observe(self, ctx: DetectionContext) -> float:
        """The run's worst value of the calibrated metric (0 if quiet)."""
        raise NotImplementedError

    def detect(
        self, ctx: DetectionContext, thresholds: Thresholds
    ) -> list[Finding]:
        """Findings for every subject whose metric crosses threshold."""
        raise NotImplementedError


class CpuOversubscriptionDetector(Detector):
    """Sustained CPU saturation on a compute node.

    Healthy GPU-bound phases leave CPU headroom (the paper's Fig 9
    observation); a node pinned at/above ``cpu_saturated_level`` for
    longer than any clean run exhibits is oversubscribed — co-scheduled
    CPU work is starving the tasks feeding the GPUs.
    """

    name = "cpu-oversubscription"
    kind = "cpu_oversubscription"
    metric_field = "cpu_sustained_seconds"
    metric_floor = 120.0

    def _saturated_runs(
        self, ctx: DetectionContext, level: float
    ) -> dict[str, list]:
        store = ctx.store(HARDWARE)
        if store is None:
            return {}
        runs: dict[str, list] = {}
        for host, points in cpu_utilization_series(store).items():
            host_runs, current = [], []
            for p in points:
                if p.cpu_utilization >= level:
                    current.append(p)
                else:
                    if len(current) >= 2:
                        host_runs.append(current)
                    current = []
            if len(current) >= 2:
                host_runs.append(current)
            if host_runs:
                runs[host] = host_runs
        return runs

    def observe(self, ctx: DetectionContext) -> float:
        longest = 0.0
        level = DEFAULT_THRESHOLDS.cpu_saturated_level
        for host_runs in self._saturated_runs(ctx, level).values():
            for run in host_runs:
                longest = max(longest, run[-1].time - run[0].time)
        return longest

    def detect(
        self, ctx: DetectionContext, thresholds: Thresholds
    ) -> list[Finding]:
        findings = []
        level = thresholds.cpu_saturated_level
        for host, host_runs in sorted(self._saturated_runs(ctx, level).items()):
            run = max(host_runs, key=lambda r: r[-1].time - r[0].time)
            sustained = run[-1].time - run[0].time
            if sustained < thresholds.cpu_sustained_seconds:
                continue
            cpu = [p.cpu_utilization for p in run]
            findings.append(
                Finding(
                    kind=self.kind,
                    detector=self.name,
                    where=host,
                    start=run[0].time,
                    end=run[-1].time,
                    severity=sustained / thresholds.cpu_sustained_seconds,
                    evidence={
                        "sustained_seconds": sustained,
                        "mean_cpu": float(np.mean(cpu)),
                        "max_cpu": float(np.max(cpu)),
                        "samples": len(run),
                    },
                    threshold={
                        "cpu_saturated_level": level,
                        "cpu_sustained_seconds": (
                            thresholds.cpu_sustained_seconds
                        ),
                    },
                    action=(
                        "reduce co-scheduled CPU work on this node (or "
                        "reserve cores for GPU-feeding tasks); keep "
                        "training fan-out serial until pressure clears"
                    ),
                )
            )
        return findings


class RpcQueueingDetector(Detector):
    """SOMA ingest queueing: publishes waiting for service ranks.

    The queue-wait a publish spends before a service rank picks it up
    is the paper's Scaling-B failure mode — monitoring pressure
    outrunning the instance's rank pool.  Clean runs queue for
    microseconds; a mean wait above threshold means the instance is
    saturated and monitors are backing up.

    Prefers the *windowed* peak (``peak_window_queue_seconds``) when
    the stats carry it: a ten-minute saturation burst inside an
    hours-long run barely moves the lifetime mean, but the worst
    window preserves it.  Synthetic stats without the field fall back
    to the lifetime mean, so calibrated thresholds stay comparable.
    """

    name = "rpc-queueing"
    kind = "rpc_queueing"
    metric_field = "rpc_mean_queue_seconds"
    metric_floor = 0.05

    @staticmethod
    def _queue_metric(stats: dict) -> float:
        peak = stats.get("peak_window_queue_seconds")
        if peak is not None:
            return float(peak)
        return float(stats["mean_queue_seconds"])

    def observe(self, ctx: DetectionContext) -> float:
        worst = 0.0
        for stats in ctx.server_stats.values():
            if stats.get("calls", 0):
                worst = max(worst, self._queue_metric(stats))
        return worst

    def detect(
        self, ctx: DetectionContext, thresholds: Thresholds
    ) -> list[Finding]:
        findings = []
        for key, stats in sorted(ctx.server_stats.items()):
            calls = stats.get("calls", 0)
            if not calls:
                continue
            mean_queue = self._queue_metric(stats)
            if mean_queue < thresholds.rpc_mean_queue_seconds:
                continue
            findings.append(
                Finding(
                    kind=self.kind,
                    detector=self.name,
                    where=registry_name(key),
                    start=0.0,
                    end=ctx.now,
                    severity=mean_queue / thresholds.rpc_mean_queue_seconds,
                    evidence={
                        "mean_queue_seconds": mean_queue,
                        "calls": calls,
                        "errors": stats.get("errors", 0),
                        "ranks": stats.get("ranks", 1),
                        "mean_service_seconds": (
                            float(stats.get("busy_seconds", 0.0)) / calls
                        ),
                    },
                    threshold={
                        "rpc_mean_queue_seconds": (
                            thresholds.rpc_mean_queue_seconds
                        ),
                    },
                    action=(
                        "add service ranks to this namespace instance or "
                        "lower the monitoring frequency (backpressure)"
                    ),
                )
            )
        return findings


class LoadImbalanceDetector(Detector):
    """Per-rank compute imbalance in a TAU-profiled MPI task.

    Fig 5's signature: total per-rank time is flat (fast ranks wait in
    MPI for stragglers) but the *compute* split is skewed.  The metric
    is max/mean over per-rank compute seconds, as
    :func:`repro.soma.analysis.load_imbalance` computes it.  Each call
    merges the ``performance`` store once for all tasks.
    """

    name = "load-imbalance"
    kind = "load_imbalance"
    metric_field = "imbalance_ratio"
    metric_floor = 1.3

    def _breakdowns(self, ctx: DetectionContext) -> list[tuple[str, dict]]:
        """(task uid, rank/region breakdown) for every TAU task, by uid."""
        store = ctx.store(PERFORMANCE)
        if store is None or not len(store):
            return []
        return sorted(task_breakdowns(store).items())

    @staticmethod
    def _task_windows(ctx: DetectionContext) -> dict[str, list[float]]:
        """Each TAU task's [first, last] publish time, in one pass.

        Called only after every task's breakdown was read from the
        merged store, so no record's ``TAU`` is a leaf: one would have
        failed the merge or the breakdown.
        """
        windows: dict[str, list[float]] = {}
        for record in ctx.store(PERFORMANCE):  # in time order
            data = record.data
            if "TAU" in data:
                for uid in data["TAU"]:
                    windows.setdefault(uid, [record.time, record.time])[1] = record.time
        return windows

    def observe(self, ctx: DetectionContext) -> float:
        worst = 0.0
        for _uid, breakdown in self._breakdowns(ctx):
            worst = max(worst, imbalance_ratio(breakdown))
        return worst

    def detect(
        self, ctx: DetectionContext, thresholds: Thresholds
    ) -> list[Finding]:
        findings = []
        windows = None
        for uid, breakdown in self._breakdowns(ctx):
            ratio = imbalance_ratio(breakdown)
            if ratio < thresholds.imbalance_ratio:
                continue
            compute = [
                sum(v for k, v in regions.items() if not k.startswith("MPI_"))
                for regions in breakdown.values()
            ]
            if windows is None:
                windows = self._task_windows(ctx)
            start, end = windows[uid]
            findings.append(
                Finding(
                    kind=self.kind,
                    detector=self.name,
                    where=uid,
                    start=start,
                    end=end,
                    severity=ratio / thresholds.imbalance_ratio,
                    evidence={
                        "imbalance": ratio,
                        "ranks": len(breakdown),
                        "max_compute_seconds": float(np.max(compute)),
                        "mean_compute_seconds": float(np.mean(compute)),
                    },
                    threshold={
                        "imbalance_ratio": thresholds.imbalance_ratio,
                    },
                    action=(
                        "rebalance the domain decomposition or tune the "
                        "rank count (RankTuningPolicy) for this task type"
                    ),
                )
            )
        return findings


class SchedulerStarvationDetector(Detector):
    """Throughput collapse: pending work but no completions.

    From each RP monitor's summary series, the longest span of
    consecutive samples where the ``done`` counter does not advance
    while ``pending`` tasks wait.  Clean runs stall at most for one
    stage's duration; far longer means the scheduler (or the capacity
    under it) has starved.
    """

    name = "scheduler-starvation"
    kind = "scheduler_starvation"
    metric_field = "stall_seconds"
    metric_floor = 240.0

    def _stalls(self, ctx: DetectionContext, min_pending: float):
        """Per source: the longest (start, end, max_pending) stall."""
        store = ctx.store(WORKFLOW)
        if store is None:
            return {}
        by_source: dict[str, list[dict]] = defaultdict(list)
        for entry in workflow_summary_series(store):
            by_source[entry["source"]].append(entry)
        stalls = {}
        for source, series in by_source.items():
            best = None
            current = None  # [start, end, max_pending]
            for prev, cur in zip(series, series[1:]):
                progressed = cur.get("done", 0.0) > prev.get("done", 0.0)
                waiting = prev.get("pending", 0.0) >= min_pending
                if not progressed and waiting:
                    if current is None:
                        current = [prev["time"], cur["time"], prev["pending"]]
                    else:
                        current[1] = cur["time"]
                    current[2] = max(
                        current[2], prev.get("pending", 0.0),
                        cur.get("pending", 0.0),
                    )
                    if best is None or (
                        current[1] - current[0] > best[1] - best[0]
                    ):
                        best = list(current)
                else:
                    current = None
            if best is not None:
                stalls[source] = tuple(best)
        return stalls

    def observe(self, ctx: DetectionContext) -> float:
        longest = 0.0
        min_pending = DEFAULT_THRESHOLDS.stall_min_pending
        for start, end, _pending in self._stalls(ctx, min_pending).values():
            longest = max(longest, end - start)
        return longest

    def detect(
        self, ctx: DetectionContext, thresholds: Thresholds
    ) -> list[Finding]:
        findings = []
        stalls = self._stalls(ctx, thresholds.stall_min_pending)
        for source, (start, end, max_pending) in sorted(stalls.items()):
            stall = end - start
            if stall < thresholds.stall_seconds:
                continue
            findings.append(
                Finding(
                    kind=self.kind,
                    detector=self.name,
                    where=source,
                    start=start,
                    end=end,
                    severity=stall / thresholds.stall_seconds,
                    evidence={
                        "stall_seconds": stall,
                        "max_pending": float(max_pending),
                    },
                    threshold={
                        "stall_seconds": thresholds.stall_seconds,
                        "stall_min_pending": thresholds.stall_min_pending,
                    },
                    action=(
                        "check node health / agent scheduler state; "
                        "throttle submission or resize the pilot"
                    ),
                )
            )
        return findings


#: The built-in detector battery, in report order.
DETECTORS: tuple = (
    CpuOversubscriptionDetector(),
    RpcQueueingDetector(),
    LoadImbalanceDetector(),
    SchedulerStarvationDetector(),
)


def detect_all(
    ctx: DetectionContext,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    detectors=DETECTORS,
) -> list[Finding]:
    """Run the battery; findings sorted most severe first."""
    findings: list[Finding] = []
    for detector in detectors:
        findings.extend(detector.detect(ctx, thresholds))
    findings.sort(key=lambda f: (-f.severity, f.kind, f.where))
    return findings


def observe_all(ctx: DetectionContext, detectors=DETECTORS) -> dict[str, float]:
    """Each detector's calibration metric on this run."""
    return {d.metric_field: d.observe(ctx) for d in detectors}
