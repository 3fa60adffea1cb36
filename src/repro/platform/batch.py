"""Batch system: how a pilot job gets onto the machine.

RADICAL-Pilot submits one *pilot job* through PSI/J to the platform's
batch scheduler (Fig 1, step 1); once the job starts, the pilot owns a
set of whole nodes until it releases them.  The pilot's walltime is
validated and passed in the :class:`JobRequest`, but not enforced: no
allocation expires.  We model a strict FIFO queue without
backfilling: a later request waits behind a blocked head even when it
would fit the free pool.  That is sufficient because the paper's
experiments each run in a single allocation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator

from ..sim.core import Environment, Event, SimulationError
from .node import Node

__all__ = ["JobRequest", "JobAllocation", "BatchSystem", "BatchError"]


class BatchError(SimulationError):
    """Raised when a job request cannot ever be satisfied."""


@dataclass(frozen=True, slots=True)
class JobRequest:
    """A batch job request (the pilot description's resource part)."""

    nodes: int
    walltime: float
    name: str = "pilot"


class JobAllocation:
    """A granted job: a set of whole nodes plus lifetime bookkeeping."""

    def __init__(self, env: Environment, nodes: list[Node]) -> None:
        self.nodes = nodes
        self.released_at: float | None = None
        #: Fires when :meth:`BatchSystem.release` releases the allocation.
        self.done: Event = env.event()

    @property
    def active(self) -> bool:
        return self.released_at is None


class BatchSystem:
    """Strict FIFO allocation of whole nodes to jobs."""

    def __init__(self, env: Environment, nodes: list[Node]) -> None:
        self.env = env
        self._nodes = nodes
        self._free: deque[Node] = deque(nodes)
        self._pending: deque[tuple[JobRequest, Event]] = deque()
        self.completed = 0

    @property
    def free_nodes(self) -> int:
        return len(self._free)

    @property
    def total_nodes(self) -> int:
        return len(self._nodes)

    def submit(self, request: JobRequest) -> Generator[Event, None, JobAllocation]:
        """Submit and wait for the allocation (process generator)."""
        if request.nodes <= 0:
            raise BatchError("job must request at least one node")
        if request.nodes > len(self._nodes):
            raise BatchError(
                f"job wants {request.nodes} nodes, machine has "
                f"{len(self._nodes)}"
            )
        granted = self.env.event()
        self._pending.append((request, granted))
        self._try_grant()
        allocation: JobAllocation = yield granted
        return allocation

    def release(self, allocation: JobAllocation) -> None:
        """Return an allocation's nodes to the free pool."""
        if not allocation.active:
            return
        allocation.released_at = self.env.now
        self._free.extend(allocation.nodes)
        self.completed += 1
        if not allocation.done.triggered:
            allocation.done.succeed(allocation)
        self._try_grant()

    # -- internals ------------------------------------------------------

    def _try_grant(self) -> None:
        # Grant as long as the head of the queue fits.
        pending = self._pending
        while pending:
            request, granted = pending[0]
            if len(self._free) < request.nodes:
                break
            pending.popleft()
            self._grant(request, granted)

    def _grant(self, request: JobRequest, granted: Event) -> None:
        free = self._free
        nodes = [free.popleft() for _ in range(request.nodes)]
        allocation = JobAllocation(self.env, nodes)
        granted.succeed(allocation)
