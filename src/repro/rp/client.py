"""Client-side RP: PilotManager, TaskManager, and the Client facade.

The client may run on a login node or remotely; here it shares the
simulation with everything else.  It mirrors the RP flow of Fig 1:
the PilotManager queues the pilot job through the batch system, the
agent bootstraps and notifies the client, and the TaskManager moves
submitted tasks through its client-side states before handing them to
the agent scheduler.
"""

from __future__ import annotations

from typing import Generator, Iterable

from ..sim.core import Event
from ..sim.events import AllOf
from ..platform.batch import JobRequest
from .agent.agent import Agent
from .description import PilotDescription, TaskDescription
from .pilot import Pilot
from .profiler import ProfileRecord
from .session import Session
from .states import PilotState, TaskState
from .task import Task

__all__ = ["PilotManager", "TaskManager", "Client"]


def _record_client_transition(
    session: Session, task: Task, state: str, **data
) -> None:
    """Client-side transition: advance + profile append (no I/O lock —
    the client writes its own profile files on its own node)."""
    task.advance(state, **data)
    session.tracer.record("rp.state", task.uid, state=state, node="client")
    session.profiles.append(
        ProfileRecord(
            time=session.env.now,
            entity=task.uid,
            event="state",
            state=state,
            node="client",
        )
    )


class PilotManager:
    """Acquires resources by submitting pilot jobs (Fig 1, steps 1-3)."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.env = session.env
        self.pilots: dict[str, Pilot] = {}
        self.agents: dict[str, Agent] = {}

    def submit_pilot(
        self, description: PilotDescription
    ) -> Generator[Event, None, Pilot]:
        """Submit and wait until the pilot is active (agent ready)."""
        session = self.session
        pilot = Pilot(self.env, session.new_uid("pilot"), description)
        self.pilots[pilot.uid] = pilot
        with session.telemetry.span(
            f"pilot:{pilot.uid}", component="rp-client", uid=pilot.uid
        ):
            pilot.advance(PilotState.PMGR_LAUNCHING_PENDING)
            pilot.advance(PilotState.PMGR_LAUNCHING)
            session.tracer.record("rp.pilot", pilot.uid, event="submit")

            job = yield from session.cluster.batch.submit(
                JobRequest(
                    nodes=description.total_nodes,
                    walltime=description.walltime,
                    name=pilot.uid,
                )
            )
            pilot.job = job
            pilot.advance(PilotState.PMGR_ACTIVE_PENDING)
            # Batch launcher overhead before the bootstrapper runs.
            yield self.env.timeout(session.cluster.spec.job_launch_overhead)

            agent = Agent(session, pilot)
            self.agents[pilot.uid] = agent
            yield from agent.bootstrap(job)
        return pilot

    def agent_of(self, pilot: Pilot) -> Agent:
        return self.agents[pilot.uid]

    def cancel_pilot(self, pilot: Pilot) -> None:
        """Shut the pilot down and release its allocation."""
        agent = self.agents.get(pilot.uid)
        if agent is not None:
            agent.shutdown()
        if pilot.job is not None:
            self.session.cluster.batch.release(pilot.job)


class TaskManager:
    """Client-side task intake (Fig 1, steps 4-6)."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.env = session.env
        self.tasks: dict[str, Task] = {}
        self._agent: Agent | None = None

    def add_pilot(self, agent: Agent) -> None:
        self._agent = agent

    def submit_tasks(
        self, descriptions: Iterable[TaskDescription]
    ) -> list[Task]:
        """Create tasks and start moving them toward the agent."""
        if self._agent is None:
            raise RuntimeError("no pilot attached to this TaskManager")
        tel = self.session.telemetry
        tasks: list[Task] = []
        for description in descriptions:
            task = Task(
                self.env, self.session.new_uid("task"), description
            )
            task.submitted_at = self.env.now
            self.tasks[task.uid] = task
            tasks.append(task)
            # Root span of the task's causal tree; every later phase
            # (feed, scheduling, execution, publishes) joins it via the
            # uid binding.  Closed by a host-only completion callback —
            # appending to an Event's callback list schedules nothing.
            span = tel.start_span(
                f"task:{task.uid}",
                component="rp-client",
                uid=task.uid,
                mode=str(description.mode),
            )
            if span is not None:
                tel.bind(task.uid, span)

                def _close(_event, task=task, span=span) -> None:
                    tel.end_span(span, state=str(task.state))
                    tel.unbind(task.uid)

                task.completed.callbacks.append(_close)
            self.env.process(
                self._feed(task), name=f"tmgr-feed-{task.uid}"
            )
        return tasks

    def _feed(self, task: Task) -> Generator[Event, None, None]:
        """Move one task through the client states to the agent."""
        cfg = self.session.config
        session = self.session
        with session.telemetry.span(
            "tmgr.feed",
            component="rp-client",
            parent=session.telemetry.binding(task.uid),
            uid=task.uid,
        ):
            _record_client_transition(session, task, TaskState.TMGR_SCHEDULING)
            # Service/monitor tasks bypass input staging so they reach the
            # agent before any application task submitted alongside them.
            if cfg.tmgr_latency > 0 and task.is_application:
                yield self.env.timeout(session.jitter(cfg.tmgr_latency))
            _record_client_transition(session, task, TaskState.TMGR_STAGING_INPUT)
            _record_client_transition(
                session, task, TaskState.AGENT_SCHEDULING_PENDING
            )
            if cfg.client_agent_latency > 0:
                yield self.env.timeout(cfg.client_agent_latency)
            if task.is_final:
                return  # canceled while still client-side
            assert self._agent is not None
            self._agent.submit(task)

    def wait_tasks(
        self, tasks: Iterable[Task]
    ) -> Generator[Event, None, list[Task]]:
        """Block until every task reaches a final state."""
        tasks = list(tasks)
        pending = [t.completed for t in tasks if not t.is_final]
        if pending:
            yield AllOf(self.env, pending)
        return tasks

    def cancel_tasks(self, tasks: Iterable[Task]) -> None:
        """Cancel tasks (running -> interrupted, waiting -> CANCELED).

        Tasks still in client-side states are finalized here; the
        ``_feed`` pipeline drops finalized tasks before they reach the
        agent.
        """
        for task in tasks:
            if task.is_final:
                continue
            if self._agent is not None and task.uid in self._agent.tasks:
                self._agent.cancel(task)
            else:
                task.advance(TaskState.CANCELED)
                self.session.tracer.record(
                    "rp.state", task.uid, state=TaskState.CANCELED
                )


class Client:
    """The user-facing RP facade, as the paper's run scripts use it."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.env = session.env
        self.pilot_manager = PilotManager(session)
        self.task_manager = TaskManager(session)
        self.pilot: Pilot | None = None

    def submit_pilot(
        self, description: PilotDescription
    ) -> Generator[Event, None, Pilot]:
        pilot = yield from self.pilot_manager.submit_pilot(description)
        self.pilot = pilot
        self.task_manager.add_pilot(self.pilot_manager.agent_of(pilot))
        return pilot

    @property
    def agent(self) -> Agent:
        if self.pilot is None:
            raise RuntimeError("no active pilot")
        return self.pilot_manager.agent_of(self.pilot)

    def submit_tasks(
        self, descriptions: Iterable[TaskDescription]
    ) -> list[Task]:
        return self.task_manager.submit_tasks(descriptions)

    def wait_tasks(
        self, tasks: Iterable[Task]
    ) -> Generator[Event, None, list[Task]]:
        result = yield from self.task_manager.wait_tasks(tasks)
        return result

    def cancel_tasks(self, tasks: Iterable[Task]) -> None:
        self.task_manager.cancel_tasks(tasks)

    def close(self) -> None:
        """End the workflow: stop services, release the allocation."""
        if self.pilot is not None:
            self.pilot_manager.cancel_pilot(self.pilot)
