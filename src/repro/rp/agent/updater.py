"""The agent updater: serialized state transitions + profile writes.

Every state transition of every task flows through this component, is
written to the RP profile store (under its I/O lock), and is mirrored
into the tracer.  Because the RP monitoring client re-reads those same
profile files, frequent monitoring contends with this writer — the
mechanism behind the frequent-monitoring overhead in Fig 11.

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
from ..profiler import ProfileRecord
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

    def __init__(
        self,
        session: "Session",
        retry: RetryPolicy | None = DEFAULT_UPDATER_RETRY,
    ) -> None:
        self.session = session
        self.env = session.env
        self.retry = retry
        #: Profile records lost to an exhausted persistence retry.
        self.dropped_records = 0

    def advance(
        self, task: Task, state: str, node: str = "", **data
    ) -> Generator[Event, None, None]:
        """Transition ``task`` and persist the profile record."""
        task.advance(state, **data)
        self.session.tracer.record(
            "rp.state", task.uid, state=state, node=node
        )
        yield from self._persist(
            ProfileRecord(
                time=self.env.now,
                entity=task.uid,
                event="state",
                state=state,
                node=node,
            )
        )

    def record_event(
        self, task: Task, event: str, node: str = ""
    ) -> Generator[Event, None, None]:
        """Record a sub-state event (launch_start, rank_start, ...)."""
        task.record_event(event)
        self.session.tracer.record(
            "rp.event", task.uid, event=event, node=node
        )
        yield from self._persist(
            ProfileRecord(
                time=self.env.now,
                entity=task.uid,
                event=event,
                state=task.state,
                node=node,
            )
        )

    def _persist(self, record: ProfileRecord) -> Generator[Event, None, None]:
        """Write ``record`` with bounded retries, dropping on failure.

        The transition itself already happened (in memory + tracer);
        only the durable profile line is at stake here.
        """
        profiles = self.session.profiles
        if self.retry is None:
            yield from profiles.write_locked(record)
            return
        try:
            yield from self.retry.execute(
                self.env,
                lambda: profiles.write_locked(record),
                name=f"profile:{record.entity}",
            )
        except RPCError:
            self.dropped_records += 1
            self.session.tracer.record(
                "rp.profile_drop",
                record.entity,
                event=record.event,
                state=record.state,
            )
