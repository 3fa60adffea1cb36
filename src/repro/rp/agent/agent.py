"""The RP Agent: bootstraps on the allocation and runs tasks.

The agent executes on the pilot's agent node (Fig 1).  On bootstrap it
partitions the allocation into agent / service / compute nodes, starts
its scheduler and executor, and then accepts tasks.  At workflow end,
``shutdown`` stops resident service tasks "through an appropriate
control command from RP" (paper Sec 2.3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ...sim.core import Event
from ..pilot import Pilot
from ..states import PilotState, TaskState
from ..task import Task
from .executor import AgentExecutor
from .scheduler import AgentScheduler
from .updater import Updater

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...platform.batch import JobAllocation
    from ..session import Session

__all__ = ["Agent"]


class Agent:
    """One agent per pilot."""

    def __init__(self, session: "Session", pilot: Pilot) -> None:
        self.session = session
        self.env = session.env
        self.pilot = pilot
        self.updater = Updater(session)
        self.scheduler: AgentScheduler | None = None
        self.executor: AgentExecutor | None = None
        self._tasks: dict[str, Task] = {}
        self.shutdown_at: float | None = None

    # -- lifecycle --------------------------------------------------------

    def bootstrap(
        self, job: "JobAllocation"
    ) -> Generator[Event, None, None]:
        """Bring the agent up on the granted allocation."""
        pilot = self.pilot
        description = pilot.description
        nodes = job.nodes
        # Partition: agent nodes first, then SOMA service nodes, then
        # application compute nodes — matching the paper's layouts.
        a, s = description.agent_nodes, description.service_nodes
        pilot.agent_nodes = nodes[:a]
        pilot.service_nodes = nodes[a : a + s]
        pilot.compute_nodes = nodes[a + s :]
        with self.session.telemetry.span(
            "agent.bootstrap", component="rp-agent", uid=pilot.uid
        ):
            self.session.tracer.record(
                "rp.pilot", pilot.uid, event="bootstrap_start"
            )
            # Bootstrap burns real time and shows up as the light-blue band
            # across all cores in Fig 8.
            yield self.env.timeout(
                self.session.jitter(self.session.config.agent_bootstrap_time)
            )
            self.scheduler = AgentScheduler(self)
            self.executor = AgentExecutor(self)
            pilot.advance(PilotState.PMGR_ACTIVE)
            self.session.tracer.record(
                "rp.pilot", pilot.uid, event="bootstrap_done"
            )

    def submit(self, task: Task) -> None:
        """Accept a task from the client (already in agent scope)."""
        if self.scheduler is None:
            raise RuntimeError("agent not bootstrapped")
        self._tasks[task.uid] = task
        self.scheduler.submit(task)

    def cancel(self, task: Task) -> None:
        """Cancel one task wherever it currently is.

        Already-final tasks are left alone; running tasks are
        interrupted (-> CANCELED); waiting tasks are finalized directly
        and swept out of the scheduler's queue on its next pass.
        """
        if task.is_final:
            return
        if self.executor is not None and self.executor.cancel(task.uid):
            return
        task.advance(TaskState.CANCELED)

    def shutdown(self) -> None:
        """Stop services and the scheduling/executing machinery."""
        if self.shutdown_at is not None:
            return
        self.shutdown_at = self.env.now
        self.session.tracer.record("rp.pilot", self.pilot.uid, event="shutdown")
        if self.executor is not None:
            self.executor.stop()
        if self.scheduler is not None:
            self.scheduler.stop()
        if not self.pilot.is_final:
            self.pilot.advance(PilotState.DONE)

    # -- introspection ------------------------------------------------------

    @property
    def tasks(self) -> dict[str, Task]:
        return self._tasks

    def application_tasks(self) -> list[Task]:
        return [t for t in self._tasks.values() if t.is_application]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Agent of {self.pilot.uid} tasks={len(self._tasks)}>"
