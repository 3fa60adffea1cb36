"""The agent updater: serialized state transitions + profile writes.

Every agent-side state transition of every task flows through this
component and is written to the RP profile store (under its I/O lock);
the task has already traced it, as the same row of the run's transition
log.  Because the RP monitoring client re-reads those same profile
files, frequent monitoring contends with this writer — the mechanism
behind the frequent-monitoring overhead in Fig 11.

Persistence is best-effort under faults: if the profile store is
unavailable (injected outage), the write is retried under a small
:class:`~repro.faults.RetryPolicy` and then *dropped* — the in-memory
state transition has already been applied and traced, so the workflow
proceeds with a hole in its profile log rather than a stalled agent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ...faults.retry import RetryPolicy
from ...messaging.protocol import RPCError
from ...sim.core import Event
from ..task import Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session import Session

__all__ = ["Updater", "DEFAULT_UPDATER_RETRY"]

#: Fast, bounded retries: a state update must never hold up the agent
#: for long, and its backoff must not depend on RNG state (jitter=0).
DEFAULT_UPDATER_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay=0.05,
    multiplier=2.0,
    max_delay=1.0,
    jitter=0.0,
    deadline=5.0,
    timeout=None,
)


class Updater:
    """Applies and records state transitions for tasks."""

    def __init__(self, session: "Session") -> None:
        self.session = session
        self.env = session.env
        #: Profile records lost to an exhausted persistence retry.
        self.dropped_records = 0

    def advance(
        self, task: Task, state: str, node: str = ""
    ) -> Generator[Event, None, None]:
        """Transition ``task`` and persist its profile row."""
        yield from self._persist(task, task.advance(state, node))

    def record_event(
        self, task: Task, event: str, node: str = ""
    ) -> Generator[Event, None, None]:
        """Record a sub-state event (launch_start, rank_start, ...)."""
        yield from self._persist(task, task.record_event(event, node))

    def _persist(self, task: Task, row: int) -> Generator[Event, None, None]:
        """Write ``task``'s row with bounded retries, dropping on failure.

        The transition itself already happened (in memory + tracer);
        only the durable profile line is at stake here.
        """
        profiles = self.session.profiles
        try:
            yield from DEFAULT_UPDATER_RETRY.execute(
                self.env,
                lambda: profiles.write_locked(row),
                name=f"profile:{task.uid}",
            )
        except RPCError:
            self.dropped_records += 1
            record = task.log.record(row)
            self.session.tracer.record(
                "rp.profile_drop",
                task.uid,
                event=record.event,
                state=record.state,
            )
