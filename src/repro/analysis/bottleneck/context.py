"""What the detectors look at: a snapshot of a run's observability data.

A :class:`DetectionContext` decouples the detectors from how the data
was obtained — built offline from a finished
:class:`~repro.experiments.harness.WorkflowResult`, online from a live
:class:`~repro.soma.integration.SomaDeployment`, or synthetically in
tests from hand-built stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...experiments.harness import WorkflowResult
    from ...soma.integration import SomaDeployment
    from ...soma.storage import NamespaceStore

__all__ = ["DetectionContext"]


@dataclass(slots=True)
class DetectionContext:
    """Everything a detector may inspect, in one place."""

    #: Wall-clock (simulated) time of the snapshot.
    now: float
    #: Namespace name -> its time-indexed store.
    stores: "dict[str, NamespaceStore]" = field(default_factory=dict)
    #: Namespace name -> plain-data RPC server accounting
    #: (ranks / calls / errors / mean_queue_seconds / busy_seconds).
    server_stats: dict = field(default_factory=dict)

    def store(self, namespace: str) -> "NamespaceStore | None":
        return self.stores.get(namespace)

    @classmethod
    def from_deployment(
        cls, deployment: "SomaDeployment", now: float
    ) -> "DetectionContext":
        """Snapshot a (possibly disabled) SOMA deployment."""
        if not deployment.enabled:
            return cls(now=now)
        model = deployment.service_model
        # queue_stats() already carries the windowed burst peak; going
        # through it keeps this snapshot identical for single-instance
        # and sharded deployments (keys become instance.namespace).
        stats = model.queue_stats()
        return cls(
            now=now,
            stores=dict(model.stores),
            server_stats=stats,
        )

    @classmethod
    def from_result(cls, result: "WorkflowResult") -> "DetectionContext":
        """Snapshot a finished workflow run (offline analysis)."""
        return cls.from_deployment(result.deployment, now=result.finished_at)
