"""The adaptive controller: SOMA observations driving RP decisions.

Prototypes the closed loop the paper leaves as future work: a
controller that consumes the SOMA namespaces online, tunes MPI task
descriptions from observed strong-scaling data, and resizes DDMD
training parallelism between phases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..soma.analysis import free_resource_estimate
from ..soma.namespaces import HARDWARE
from .policies import (
    DetectionDrivenPolicy,
    RankTuningPolicy,
    TrainingParallelismPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rp.client import Client
    from ..rp.task import Task
    from ..soma.integration import SomaDeployment

__all__ = ["AdaptiveController"]


class AdaptiveController:
    """Online decision-making on top of a SOMA deployment."""

    def __init__(
        self,
        client: "Client",
        deployment: "SomaDeployment",
        rank_policy: RankTuningPolicy | None = None,
    ) -> None:
        self.client = client
        self.session = client.session
        self.deployment = deployment
        self.rank_policy = rank_policy or RankTuningPolicy()
        self.training_policy = TrainingParallelismPolicy()
        self.detection_policy = DetectionDrivenPolicy()
        #: Log of every decision taken, for post-run inspection.
        self.decisions: list[dict] = []
        self._last_rank_choice: int | None = None
        self._last_detection: tuple | None = None

    # -- rank tuning (Fig 4 use case) -------------------------------------

    def observe_tasks(self, tasks: "list[Task]") -> None:
        """Feed completed MPI tasks into the rank-tuning policy."""
        for task in tasks:
            if task.is_final and task.execution_time is not None:
                self.rank_policy.observe_task(task)

    def recommended_ranks(self) -> int | None:
        """Current best rank count (None before any observation).

        Only *changed* recommendations are logged: polling callers
        would otherwise flood the decision log with identical entries
        and skew ablation decision counts.
        """
        choice = self.rank_policy.recommend()
        if choice is not None and choice != self._last_rank_choice:
            self._last_rank_choice = choice
            self.decisions.append(
                {
                    "time": self.session.env.now,
                    "kind": "rank_tuning",
                    "ranks": choice,
                    "observations": self.rank_policy.num_observations,
                }
            )
        return choice

    # -- training parallelism (adaptive DDMD) --------------------------------

    def recommend_training_workers(self, window: float = 180.0) -> int:
        """Training workers for the next phase, from live SOMA data."""
        headroom: dict[str, dict[str, float]] = {}
        if self.deployment.enabled:
            headroom = free_resource_estimate(
                self.deployment.store(HARDWARE),
                window=window,
                now=self.session.env.now,
            )
        free_gpus = sum(
            node.free_gpus for node in self.client.pilot.compute_nodes
        )
        workers = self.training_policy.recommend(headroom, free_gpus)
        self.decisions.append(
            {
                "time": self.session.env.now,
                "kind": "training_parallelism",
                "workers": workers,
                "free_gpus": free_gpus,
                "mean_headroom": (
                    sum(h["cpu"] for h in headroom.values()) / len(headroom)
                    if headroom
                    else None
                ),
                "mean_gpu_headroom": (
                    sum(h["gpu"] for h in headroom.values()) / len(headroom)
                    if headroom
                    else None
                ),
            }
        )
        return workers

    # -- detection-driven adaptation (bottleneck findings) ------------------

    def apply_findings(self, findings) -> dict:
        """Turn bottleneck findings into the next phase's knob settings.

        ``findings`` is a list of :class:`repro.analysis.bottleneck.Finding`
        records (or bare kind strings).  Returns the recommended
        settings; logs a ``detection`` decision only when the outcome
        differs from the previous one (same dedupe rationale as
        :meth:`recommended_ranks`).
        """
        free_gpus = sum(
            node.free_gpus for node in self.client.pilot.compute_nodes
        )
        policy = self.detection_policy
        workers = policy.recommend_training_workers(findings, free_gpus)
        current_period = (
            self.deployment.config.monitoring_frequency
            if self.deployment.enabled
            else policy.MIN_MONITOR_PERIOD
        )
        period = policy.recommend_monitor_period(findings, current_period)
        kinds = tuple(sorted({getattr(f, "kind", f) for f in findings}))
        outcome = (workers, period, kinds)
        if outcome != self._last_detection:
            self._last_detection = outcome
            self.decisions.append(
                {
                    "time": self.session.env.now,
                    "kind": "detection",
                    "workers": workers,
                    "monitor_period": period,
                    "findings": list(kinds),
                    "free_gpus": free_gpus,
                }
            )
        return {"training_workers": workers, "monitor_period": period}
