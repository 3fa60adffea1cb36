"""The Task entity: one unit of work, with its full event history.

A task's history is its rows of the run's
:class:`~repro.rp.profiler.TransitionLog`: each state transition and
sub-state event is one row, traced in its place by the log, kept by
row id in :attr:`Task.rows` and handed back to the caller, which
persists that same row id to the profile store.  :attr:`Task.events`
reads the history as records (:class:`~repro.rp.profiler.ProfileRecord`),
each built fresh on read.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from ..sim.core import Environment, Event
from .description import TaskDescription, TaskMode
from .profiler import TransitionLog, Transitions
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
        self, env: Environment, uid: str, description: TaskDescription, log: TransitionLog
    ) -> None:
        description.validate()
        self.env = env
        self.log = log
        self.uid = uid
        self.description = description
        self.state = TaskState.NEW
        #: This task's row ids in ``log``, oldest first.  The NEW row
        #: is not traced; every later one is.
        self.rows = array("i", (log.append(env.now, uid, "state", TaskState.NEW, ""),))
        #: Node names the task's ranks landed on (set by the scheduler).
        self.nodelist: list[str] = []
        #: Fires when the task reaches a final state.
        self.completed: Event = env.event()
        self.result: "TaskResult | None" = None
        self.exception: BaseException | None = None
        self.finished_at: float | None = None

    # -- state machine -------------------------------------------------

    def advance(self, new_state: str, node: str | None = None) -> int:
        """Move to ``new_state``, recording its row; returns the row id."""
        if not is_valid_transition(self.state, new_state, kind="task"):
            raise InvalidTransition(
                f"{self.uid}: illegal transition {self.state} -> {new_state}"
            )
        self.state = new_state
        row = self.log.append(self.env.now, self.uid, "state", new_state, node)
        self.rows.append(row)
        if new_state in TASK_FINAL_STATES:
            self.finished_at = self.env.now
            if not self.completed.triggered:
                self.completed.succeed(self)
        return row

    def record_event(self, name: str, node: str | None = None) -> int:
        """Record a sub-state event (launch_start, ...); returns its row id."""
        row = self.log.append(self.env.now, self.uid, name, self.state, node)
        self.rows.append(row)
        return row

    @property
    def events(self) -> Transitions:
        """The task's history as records, oldest first (read-only)."""
        return Transitions(self.log, self.rows)

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
        return self.log.time_of(self.rows, event_name)

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
