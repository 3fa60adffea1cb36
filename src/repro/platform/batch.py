"""Batch system: how a pilot job gets onto the machine.

RADICAL-Pilot submits one *pilot job* through PSI/J to the platform's
batch scheduler (Fig 1, step 1); once the job starts, the pilot owns a
set of whole nodes for its walltime.  We model a FIFO queue — strict
(backfilling-free) by default, sufficient because the paper's
experiments each run in a single allocation; ``backfill=True`` opts in
to a simple backfilling pass so a later request that fits the free pool
is granted even while the queue head waits.
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
    queue: str = "batch"


class JobAllocation:
    """A granted job: a set of whole nodes plus lifetime bookkeeping."""

    def __init__(
        self, env: Environment, request: JobRequest, nodes: list[Node]
    ) -> None:
        self.env = env
        self.request = request
        self.nodes = nodes
        self.granted_at = env.now
        self.released_at: float | None = None
        #: Fires when the allocation is released (or walltime expires).
        self.done: Event = env.event()

    @property
    def deadline(self) -> float:
        return self.granted_at + self.request.walltime

    @property
    def active(self) -> bool:
        return self.released_at is None

    def remaining_walltime(self) -> float:
        return max(0.0, self.deadline - self.env.now)


class BatchSystem:
    """FIFO allocation of whole nodes to jobs.

    With ``backfill=True``, requests behind a blocked head that fit the
    free pool are granted out of order (relative arrival order among the
    backfilled jobs is preserved; the head keeps its place).
    """

    def __init__(
        self, env: Environment, nodes: list[Node], backfill: bool = False
    ) -> None:
        self.env = env
        self._nodes = nodes
        self._free: deque[Node] = deque(nodes)
        self._pending: deque[tuple[JobRequest, Event]] = deque()
        self.backfill = backfill
        self.completed = 0
        self.backfilled = 0

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
        # FIFO head first: grant as long as the head of the queue fits.
        pending = self._pending
        while pending:
            request, granted = pending[0]
            if len(self._free) < request.nodes:
                break
            pending.popleft()
            self._grant(request, granted)
        if not self.backfill or not pending or not self._free:
            return
        # Backfill pass: grant any later request that fits what is left,
        # keeping the relative order of everything that stays queued.
        remaining: deque[tuple[JobRequest, Event]] = deque()
        while pending:
            request, granted = pending.popleft()
            # The first entry is always the non-fitting head, so every
            # grant here jumps at least one queued job.
            if len(self._free) >= request.nodes:
                self._grant(request, granted)
                self.backfilled += 1
            else:
                remaining.append((request, granted))
        self._pending = remaining

    def _grant(self, request: JobRequest, granted: Event) -> None:
        free = self._free
        nodes = [free.popleft() for _ in range(request.nodes)]
        allocation = JobAllocation(self.env, request, nodes)
        granted.succeed(allocation)
