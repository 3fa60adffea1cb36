"""The Task entity: one unit of work, with its full event history.

A task's history is its profile records: each state transition and
sub-state event is one frozen :class:`~repro.rp.profiler.ProfileRecord`,
appended to :attr:`Task.events`, added to the run's tracer as its trace
record, and handed back to the caller, which persists that same object
to the profile store.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.core import Environment, Event
from ..sim.trace import Tracer
from .description import TaskDescription, TaskMode
from .profiler import ProfileRecord
from .states import (
    TASK_FINAL_STATES,
    InvalidTransition,
    TaskState,
    is_valid_transition,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import TaskResult

__all__ = ["Task"]


class Task:
    """A task under RP management."""

    def __init__(
        self, env: Environment, uid: str, description: TaskDescription, tracer: Tracer
    ) -> None:
        description.validate()
        self.env = env
        self.tracer = tracer
        self.uid = uid
        self.description = description
        self.state = TaskState.NEW
        #: The NEW record is not traced; every later one is.
        self.events: list[ProfileRecord] = [
            ProfileRecord(env.now, uid, "state", TaskState.NEW)
        ]
        #: Node names the task's ranks landed on (set by the scheduler).
        self.nodelist: list[str] = []
        #: Fires when the task reaches a final state.
        self.completed: Event = env.event()
        self.result: "TaskResult | None" = None
        self.exception: BaseException | None = None
        self.finished_at: float | None = None

    # -- state machine -------------------------------------------------

    def advance(self, new_state: str, node: str | None = None) -> ProfileRecord:
        """Move to ``new_state``, recording and returning its event."""
        if not is_valid_transition(self.state, new_state, kind="task"):
            raise InvalidTransition(
                f"{self.uid}: illegal transition {self.state} -> {new_state}"
            )
        self.state = new_state
        record = ProfileRecord(self.env.now, self.uid, "state", new_state, node)
        self.events.append(record)
        self.tracer.add(record)
        if new_state in TASK_FINAL_STATES:
            self.finished_at = self.env.now
            if not self.completed.triggered:
                self.completed.succeed(self)
        return record

    def record_event(self, name: str, node: str | None = None) -> ProfileRecord:
        """Record and return a sub-state event (launch_start, ...)."""
        record = ProfileRecord(self.env.now, self.uid, name, self.state, node)
        self.events.append(record)
        self.tracer.add(record)
        return record

    # -- classification --------------------------------------------------

    @property
    def is_final(self) -> bool:
        return self.state in TASK_FINAL_STATES

    @property
    def is_application(self) -> bool:
        return self.description.mode in (TaskMode.EXECUTABLE, TaskMode.FUNCTION)

    # -- analysis helpers ---------------------------------------------------

    def time_of(self, event_name: str) -> float | None:
        """Timestamp of the first event with ``event_name``, if any."""
        for event in self.events:
            if event.event == event_name or (
                event.event == "state" and event.state == event_name
            ):
                return event.time
        return None

    def duration(self, start_event: str, stop_event: str) -> float | None:
        """Seconds between two recorded events, if both exist."""
        start = self.time_of(start_event)
        stop = self.time_of(stop_event)
        if start is None or stop is None:
            return None
        return stop - start

    @property
    def execution_time(self) -> float | None:
        """launch_start .. launch_stop, the paper's task execution time."""
        return self.duration("launch_start", "launch_stop")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.uid} {self.state}>"
