"""Message stores: the building block for queues and channels.

A :class:`Store` is an unbounded FIFO of arbitrary items; ``put`` and
``get`` are events.  This is the substrate for the ZeroMQ-style
component queues inside the simulated RADICAL-Pilot: the agent
scheduler's and executor's inboxes and the RAPTOR worker inboxes.

A put stores its item and triggers its event at once, so its event is
scheduled before the event of any get it serves.  The item buffer and
the get waiters are ``deque``-backed so every hot-path operation
(enqueue, dequeue, waiter dispatch) is O(1); cancelled gets are
tombstoned in place and dropped lazily when they reach the head of the
queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .core import Environment, Event

__all__ = ["StoreGet", "Store"]


class StoreGet(Event):
    """Pending retrieval of an item from a store."""

    __slots__ = ("_cancelled",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self._cancelled = False
        store._enqueue_get(self)

    def cancel(self) -> None:
        """Withdraw the pending get (no-op once an item was handed over)."""
        if not self.triggered:
            self._cancelled = True


class Store:
    """Unbounded FIFO store of items."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: deque[Any] = deque()
        self._get_waiters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event has triggered already."""
        self.items.append(item)
        event = Event(self.env).succeed()
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Retrieve the oldest item; the event's value is the item."""
        return StoreGet(self)

    # -- internals ------------------------------------------------------

    def _enqueue_get(self, event: StoreGet) -> None:
        waiters = self._get_waiters
        waiters.append(event)
        self.env._note_waiters(len(waiters))
        self._dispatch()

    def _dispatch(self) -> None:
        gets = self._get_waiters
        items = self.items
        while gets:
            get = gets[0]
            if get.triggered or get._cancelled:
                gets.popleft()
                continue
            if not items:
                break
            get.succeed(items.popleft())
            gets.popleft()
