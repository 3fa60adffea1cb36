"""The executable contract: what the agent's executor actually runs.

A :class:`TaskModel` is the simulated analogue of a task's executable.
The executor calls :meth:`TaskModel.execute` with an
:class:`ExecutionContext` describing where the task was placed; the
model is a process generator that performs compute/communication on
those resources and returns a :class:`TaskResult`.

Workload packages (:mod:`repro.workloads`) provide the OpenFOAM and
DeepDriveMD models; a few generic models live here for tests, examples
and services.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from ..sim.core import Environment, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..platform.network import Network
    from ..platform.node import Allocation, Node
    from .task import Task

__all__ = [
    "ExecutionContext",
    "TaskResult",
    "RankProfile",
    "TaskModel",
    "FixedDurationModel",
    "ComputeModel",
    "ServiceModel",
    "FailingModel",
]


@dataclass(slots=True)
class RankProfile:
    """Per-rank time decomposition, i.e. what TAU would report.

    Values are seconds spent in each region by that rank; the TAU
    monitoring plugin turns these into the performance namespace.
    """

    rank: int
    hostname: str
    seconds_by_region: dict[str, float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.seconds_by_region.values())


@dataclass(slots=True)
class TaskResult:
    """What a task model returns to the executor."""

    exit_code: int = 0
    #: Per-rank TAU-style profiles (empty unless the model fills them).
    rank_profiles: list[RankProfile] = field(default_factory=list)
    #: Model-specific outputs (figure-of-merit etc.).
    data: dict[str, Any] = field(default_factory=dict)


class ExecutionContext:
    """Everything a task model may touch while executing."""

    def __init__(
        self,
        env: Environment,
        task: "Task",
        placements: "list[Allocation]",
        network: "Network",
        rng: "np.random.Generator",
        session: "object | None" = None,
    ) -> None:
        self.env = env
        self.task = task
        #: One allocation per node the task landed on.
        self.placements = placements
        self.network = network
        self.rng = rng
        self.session = session

    def stable_rng(self) -> "np.random.Generator":
        """Per-task stable noise stream (common random numbers): the
        same task name + session seed always yields the same draws,
        making cross-configuration comparisons paired."""
        if self.session is None:
            return self.rng
        return self.session.stable_rng(self.task.description.name)

    @property
    def nodes(self) -> "list[Node]":
        return [p.node for p in self.placements]

    @property
    def hostnames(self) -> list[str]:
        return [p.node.name for p in self.placements]

    @property
    def num_nodes(self) -> int:
        return len(self.placements)

    def ranks_on(self, placement: "Allocation") -> int:
        """Number of ranks running inside ``placement``."""
        cpr = max(1, self.task.description.cores_per_rank)
        return placement.num_cores // cpr

    def rank_map(self) -> list[tuple[int, "Allocation"]]:
        """(global_rank, placement) for every rank, in placement order."""
        out: list[tuple[int, "Allocation"]] = []
        rank = 0
        for placement in self.placements:
            for _ in range(self.ranks_on(placement)):
                out.append((rank, placement))
                rank += 1
        return out


class TaskModel:
    """Base class for simulated executables."""

    def execute(
        self, ctx: ExecutionContext
    ) -> Generator[Event, Any, TaskResult]:
        """Run the task (process generator). Must be overridden."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator


class FixedDurationModel(TaskModel):
    """Sleeps for a fixed duration; the simplest possible executable."""

    def __init__(self, duration: float, cpu_busy: bool = True) -> None:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.duration = duration
        self.cpu_busy = cpu_busy

    def execute(self, ctx: ExecutionContext):
        if self.cpu_busy:
            acts = [
                p.node.run_compute(
                    cores=p.num_cores,
                    work=self.duration * p.node.spec.core_speed,
                    mem_intensity=0.0,
                )
                for p in ctx.placements
            ]
            for act in acts:
                yield act.done
        else:
            yield ctx.env.timeout(self.duration)
        return TaskResult(exit_code=0)


class ComputeModel(TaskModel):
    """Contention-sensitive compute: ``work`` units per rank.

    Duration depends on what else runs on the nodes, via the node's
    memory-bandwidth contention domain.
    """

    def __init__(
        self,
        work_per_rank: float,
        mem_intensity: float = 0.5,
        demand_per_core: float = 1.0,
    ) -> None:
        self.work_per_rank = work_per_rank
        self.mem_intensity = mem_intensity
        self.demand_per_core = demand_per_core

    def execute(self, ctx: ExecutionContext):
        acts = [
            p.node.run_compute(
                cores=p.num_cores,
                work=self.work_per_rank,
                mem_intensity=self.mem_intensity,
                demand_per_core=self.demand_per_core,
            )
            for p in ctx.placements
        ]
        try:
            for act in acts:
                yield act.done
        except Interrupt:
            # Cancellation: stop the remaining ranks immediately.
            for act in acts:
                if act.finished_at is None:
                    act.cancel()
            raise
        return TaskResult(exit_code=0)


class ServiceModel(TaskModel):
    """A long-running service: runs until interrupted by the agent.

    Subclasses override :meth:`setup` to bring the service up (e.g.
    start RPC servers) and :meth:`teardown` for shutdown.
    """

    def setup(self, ctx: ExecutionContext) -> Generator[Event, Any, None]:
        """Bring the service up (may yield)."""
        return
        yield  # pragma: no cover

    def teardown(self, ctx: ExecutionContext) -> None:
        """Synchronous cleanup when the service is stopped."""

    def execute(self, ctx: ExecutionContext):
        yield from self.setup(ctx)
        try:
            # Park on an event that never fires; the agent interrupts
            # us at workflow end.  (No queue entry, so a drained event
            # queue still ends the simulation cleanly.)
            yield ctx.env.event()
        except Interrupt:
            pass
        finally:
            self.teardown(ctx)
        return TaskResult(exit_code=0)


class FailingModel(TaskModel):
    """Fails after ``delay`` seconds — for failure-injection tests."""

    def __init__(self, delay: float = 1.0, exit_code: int = 1) -> None:
        self.delay = delay
        self.exit_code = exit_code

    def execute(self, ctx: ExecutionContext):
        yield ctx.env.timeout(self.delay)
        return TaskResult(exit_code=self.exit_code)
