"""Capacity-limited resources for the simulation kernel.

A :class:`Resource` models mutual exclusion over ``capacity`` identical
slots.  Requests are events; they succeed once a slot is free.  A
``with`` protocol is provided so processes can write::

    with resource.request() as req:
        yield req
        ...  # critical section

Requests are served first come, first served.  These are used for,
e.g., serializing access to the simulated batch system and the RPC
server worker pools.

The FIFO wait queue is a ``deque`` and the holder set a hash set, so
request, grant, and release are all O(1).  Withdrawn requests are
tombstoned in place and skipped lazily when they reach the head — no
list scans.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .core import Environment, Event, NORMAL, URGENT

__all__ = ["Request", "Release", "Resource"]


class Request(Event):
    """A pending claim on one slot of a resource."""

    __slots__ = ("resource", "proc", "_withdrawn")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.proc = resource.env.active_process
        self._withdrawn = False
        resource._queue_request(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot (or withdraw the request if still pending)."""
        self.resource._cancel(self)


class Release(Event):
    """Event representing completion of a release (fires immediately)."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.request = request
        resource._cancel(request)
        self.succeed(priority=URGENT)


class Resource:
    """A resource with ``capacity`` interchangeable slots (FIFO)."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self._waiting: deque[Request] = deque()
        self._users: set[Request] = set()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue(self) -> list[Request]:
        """Requests waiting for a slot (read-only view)."""
        return [r for r in self._waiting if not r._withdrawn]

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> Release:
        return Release(self, request)

    # -- internals ------------------------------------------------------

    def _queue_request(self, request: Request) -> None:
        self._waiting.append(request)
        self.env._note_waiters(len(self._waiting))
        if self.env._sanitizer is not None:
            self.env._sanitizer.on_request(request)

    def _trigger_requests(self) -> None:
        waiting = self._waiting
        users = self._users
        while waiting and len(users) < self._capacity:
            request = waiting.popleft()
            if request._withdrawn:
                continue  # tombstone left by _cancel
            users.add(request)
            if self.env._sanitizer is not None:
                self.env._sanitizer.on_grant(request)
            request.succeed(priority=NORMAL)

    def _cancel(self, request: Request) -> None:
        if self.env._sanitizer is not None:
            self.env._sanitizer.on_release(request)
        if request in self._users:
            self._users.discard(request)
            self._trigger_requests()
        else:
            # Tombstone: dropped lazily when it reaches the queue head.
            request._withdrawn = True
