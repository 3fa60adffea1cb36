"""Descriptions: what users submit to RADICAL-Pilot.

A :class:`TaskDescription` specifies the executable (here: a
:class:`~repro.rp.model.TaskModel`), its resource geometry (ranks ×
cores per rank, GPUs per rank) and scheduling hints.  A
:class:`PilotDescription` specifies the node allocation.  Mirrors RP's
public API surface as used in the paper's run scripts, and only as far
as the scheduler and executor act on it: a field they would ignore
(memory per rank, pre/post-exec hooks, queue and project names) is not
here, since setting it would change nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import TaskModel

__all__ = ["TaskDescription", "PilotDescription", "TaskMode"]


class TaskMode:
    """Execution modes a task can request."""

    EXECUTABLE = "executable"
    #: Long-running service scheduled before any application task.
    SERVICE = "service"
    #: Monitoring daemon: scheduled after services, before app tasks.
    MONITOR = "monitor"
    #: Python function task (executed through the RAPTOR subsystem).
    FUNCTION = "function"


@dataclass(slots=True)
class TaskDescription:
    """Resource and execution requirements of one task."""

    #: Human-readable name; uids are assigned by the session.
    name: str = "task"
    #: What to run: a TaskModel instance (the simulated executable).
    model: "TaskModel | None" = None
    #: Number of MPI ranks (processes).
    ranks: int = 1
    #: Physical cores per rank.
    cores_per_rank: int = 1
    #: GPUs per rank (may be fractional in RP; integers here).
    gpus_per_rank: int = 0
    #: Execution mode (executable / service / monitor / function).
    mode: str = TaskMode.EXECUTABLE
    #: If True the ranks may be spread over multiple nodes (MPI).
    multi_node: bool = True
    #: Named tags (e.g. {'colocate': 'agent_node'}).
    tags: dict[str, str] = field(default_factory=dict)
    #: Free-form metadata passed through to results.
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def total_cores(self) -> int:
        return self.ranks * self.cores_per_rank

    @property
    def total_gpus(self) -> int:
        return self.ranks * self.gpus_per_rank

    def validate(self) -> None:
        if self.ranks <= 0:
            raise ValueError(f"{self.name}: ranks must be positive")
        if self.cores_per_rank <= 0:
            raise ValueError(f"{self.name}: cores_per_rank must be positive")
        if self.gpus_per_rank < 0:
            raise ValueError(f"{self.name}: gpus_per_rank must be >= 0")
        if self.mode not in (
            TaskMode.EXECUTABLE,
            TaskMode.SERVICE,
            TaskMode.MONITOR,
            TaskMode.FUNCTION,
        ):
            raise ValueError(f"{self.name}: unknown mode {self.mode!r}")


@dataclass(slots=True)
class PilotDescription:
    """Resource request for one pilot job."""

    #: Compute nodes for application tasks.
    nodes: int = 1
    #: Extra nodes reserved for RP agent + monitoring infrastructure
    #: (the paper allocates one extra node for the RP agent and SOMA
    #: service, plus optionally more SOMA-only nodes).
    agent_nodes: int = 1
    #: Additional nodes dedicated to the SOMA service ranks.
    service_nodes: int = 0
    #: Whether RP may schedule app tasks on free cores/GPUs of the
    #: service nodes ("shared" vs "exclusive" in the paper).
    share_service_nodes: bool = False
    #: Walltime in (simulated) seconds.
    walltime: float = 24 * 3600.0

    @property
    def total_nodes(self) -> int:
        return self.nodes + self.agent_nodes + self.service_nodes

    def validate(self) -> None:
        if self.nodes <= 0:
            raise ValueError("pilot needs at least one compute node")
        if self.agent_nodes < 0 or self.service_nodes < 0:
            raise ValueError("node counts must be non-negative")
        if self.walltime <= 0:
            raise ValueError("walltime must be positive")
