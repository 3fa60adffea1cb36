"""Adaptive policies: turning SOMA observations into decisions.

The paper's conclusion sketches the plan: "analyze performance metrics
together with scientific progress measures to make smart scheduling
and configuration decisions, including the altering of the workflow
configuration on-the-fly".  This module implements the three concrete
decisions the paper's results motivate:

* :class:`RankTuningPolicy` — Sec 4.1 / Fig 4: observe completed MPI
  tasks and choose the rank count to use for the remaining instances
  ("RP could collect information about MPI task performance, and
  utilize that information to change the task description").
* :class:`TrainingParallelismPolicy` — Sec 4.3 / Fig 9: with CPU
  headroom high and GPUs the bottleneck, parallelize training across
  free GPUs.
* :class:`UtilizationAwarePlacement` — Sec 4.2 / Fig 8: "prioritizing
  the use of the free CPUs on a node with comparably lower overall CPU
  utilization".

:class:`DetectionDrivenPolicy` steers the same training and monitoring
decisions from bottleneck findings.  Both training policies model a
phase's training time with
:meth:`~repro.workloads.ddmd.DDMDParams.train_gpu_seconds_parallel` at
the DDMD workload's own costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..workloads.ddmd import DDMDParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..platform.node import Node
    from ..rp.task import Task

__all__ = [
    "RankObservation",
    "RankTuningPolicy",
    "TrainingParallelismPolicy",
    "DetectionDrivenPolicy",
    "UtilizationAwarePlacement",
]


def _headroom_components(value) -> tuple[float, float]:
    """Normalize one host's headroom to ``(cpu, gpu)``.

    :func:`repro.soma.analysis.free_resource_estimate` returns
    per-resource dicts; bare floats (older callers, hand-built maps)
    are treated as CPU-only with unknown GPU load, i.e. full GPU
    headroom.
    """
    if isinstance(value, dict):
        return float(value.get("cpu", 0.0)), float(value.get("gpu", 1.0))
    return float(value), 1.0


#: The training costs of every DDMD run the policies steer.
_TRAINING_COSTS = DDMDParams()


def _modeled_best_workers(limit: int, params: DDMDParams) -> int:
    """Training-worker count in ``1..limit`` with the least modeled time.

    The time is :meth:`~repro.workloads.ddmd.DDMDParams.train_gpu_seconds_parallel`
    of ``params``; ties keep the smaller count.
    """
    return min(range(1, limit + 1), key=params.train_gpu_seconds_parallel)


@dataclass(frozen=True, slots=True)
class RankObservation:
    """One completed MPI task: its configuration and outcome."""

    ranks: int
    execution_time: float


class RankTuningPolicy:
    """Choose the MPI rank count from observed strong-scaling data.

    The decision metric is *cost* = execution time × ranks (core-
    seconds per instance), optionally trading cost for speed through
    ``speedup_weight``: 0 picks the most efficient configuration,
    1 picks the fastest.
    """

    def __init__(self, speedup_weight: float = 0.35) -> None:
        if not 0.0 <= speedup_weight <= 1.0:
            raise ValueError("speedup_weight must be in [0, 1]")
        self.speedup_weight = speedup_weight
        self._observations: list[RankObservation] = []

    def observe(self, ranks: int, execution_time: float) -> None:
        self._observations.append(RankObservation(ranks, execution_time))

    def observe_task(self, task: "Task") -> None:
        """Convenience: pull the configuration from an RP task."""
        if task.execution_time is not None:
            self.observe(task.description.ranks, task.execution_time)

    @property
    def num_observations(self) -> int:
        return len(self._observations)

    def mean_times(self) -> dict[int, float]:
        by_ranks: dict[int, list[float]] = {}
        for obs in self._observations:
            by_ranks.setdefault(obs.ranks, []).append(obs.execution_time)
        return {r: float(np.mean(v)) for r, v in by_ranks.items()}

    def recommend(self) -> int | None:
        """The rank count to use next, or None without data.

        Scores each observed configuration by a normalized blend of
        core-seconds (efficiency) and wall time (speed); lowest wins.
        """
        means = self.mean_times()
        if not means:
            return None
        times = np.array(list(means.values()))
        ranks = np.array(list(means.keys()), dtype=float)
        cost = times * ranks
        cost_n = cost / cost.min()
        time_n = times / times.min()
        score = (1.0 - self.speedup_weight) * cost_n + (
            self.speedup_weight * time_n
        )
        return int(ranks[int(np.argmin(score))])


class TrainingParallelismPolicy:
    """Pick the training-task count for the next DDMD phase."""

    #: Most training workers one phase may use.
    MAX_WORKERS = 6
    #: Mean CPU headroom below which training stays serial.
    HEADROOM_THRESHOLD = 0.5

    def recommend(self, headroom: dict, free_gpus: int) -> int:
        """Workers for the next phase's training stage.

        ``headroom`` maps host to per-resource headroom (the shape
        :func:`~repro.soma.analysis.free_resource_estimate` returns).
        Parallelize only while (a) CPU headroom confirms the workload
        is GPU-bound, (b) free GPUs *with headroom* exist — the GPU
        component scales the worker budget so a machine whose GPUs are
        already busy is not over-subscribed — and (c) the marginal
        worker still reduces the modeled training time (reduce
        overhead grows with workers).
        """
        if not headroom:
            return 1
        components = [_headroom_components(v) for v in headroom.values()]
        cpu = float(np.mean([c for c, _ in components]))
        gpu = float(np.mean([g for _, g in components]))
        if cpu < self.HEADROOM_THRESHOLD:
            return 1
        budget = int(free_gpus * min(1.0, gpu) + 1e-9)
        limit = max(1, min(self.MAX_WORKERS, budget))
        return _modeled_best_workers(limit, _TRAINING_COSTS)


class DetectionDrivenPolicy:
    """Re-tune the run from bottleneck *findings* instead of raw headroom.

    Consumes :class:`repro.analysis.bottleneck.Finding` records (only
    their ``kind`` is read, so plain strings work too) and turns them
    into the two knobs the adaptive DDMD experiment exposes: training
    parallelism for the next phase and the SOMA monitoring period.

    The contrast with :class:`TrainingParallelismPolicy` is the point
    of the detection ablation: absent adverse findings the workload is
    *known* healthy and GPU-bound, so the policy fans training out to
    the modeled-best worker count immediately instead of waiting for a
    headroom average to clear a threshold.
    """

    #: Most training workers one phase may use.
    MAX_WORKERS = 6
    #: Bounds of the SOMA monitoring period, in seconds.
    MIN_MONITOR_PERIOD = 10.0
    MAX_MONITOR_PERIOD = 240.0

    @staticmethod
    def _kinds(findings) -> set[str]:
        return {getattr(f, "kind", f) for f in findings}

    def recommend_training_workers(self, findings, free_gpus: int) -> int:
        """Training workers for the next phase given current findings.

        CPU oversubscription or a starving scheduler means extra
        training workers would contend for (or wait behind) scarce
        capacity — stay serial.  Otherwise pick the modeled-best count
        within the free-GPU budget.
        """
        kinds = self._kinds(findings)
        if "cpu_oversubscription" in kinds or "scheduler_starvation" in kinds:
            return 1
        limit = max(1, min(self.MAX_WORKERS, int(free_gpus)))
        return _modeled_best_workers(limit, _TRAINING_COSTS)

    def recommend_monitor_period(self, findings, current: float) -> float:
        """Monitoring period given current findings.

        RPC ingest queueing → back off (double the period, capped);
        otherwise keep the current period, floored at the minimum.
        """
        period = max(self.MIN_MONITOR_PERIOD, float(current))
        if "rpc_queueing" in self._kinds(findings):
            period = min(self.MAX_MONITOR_PERIOD, period * 2.0)
        return period


class UtilizationAwarePlacement:
    """Node ranking for the agent scheduler (Sec 4.2's suggestion).

    Install via :meth:`repro.rp.agent.scheduler.AgentScheduler.set_node_ranker`;
    first-fit then scans nodes from least to most utilized, so new
    tasks land where memory-bandwidth pressure is lowest.
    """

    def __call__(self, nodes: "Sequence[Node]") -> "list[Node]":
        return sorted(
            nodes,
            key=lambda n: (n.domain.pressure(), n.cpu_utilization()),
        )
