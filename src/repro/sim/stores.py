"""Message stores: the building block for queues and channels.

A :class:`Store` is a FIFO of arbitrary items, unbounded or bounded;
``put`` and ``get`` are events.  This is the substrate for the
ZeroMQ-style component queues inside the simulated RADICAL-Pilot and for
the RPC engine's mailboxes.

The item buffer and both waiter queues are ``deque``-backed so every
hot-path operation (enqueue, dequeue, waiter dispatch) is O(1);
cancelled waiters are tombstoned in place and dropped lazily when they
reach the head of their queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .core import Environment, Event, NORMAL

__all__ = ["StorePut", "StoreGet", "Store"]


class StorePut(Event):
    """Pending insertion of ``item`` into a store."""

    __slots__ = ("item", "_cancelled")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        self._cancelled = False
        store._enqueue_put(self)

    def cancel(self) -> None:
        """Withdraw the pending put (no-op once the item is stored).

        The waiter entry is tombstoned and dropped lazily by the store's
        dispatch loop; the event never fires.
        """
        if not self.triggered:
            self._cancelled = True


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
    """FIFO store of items with optional capacity bound."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.items: deque[Any] = deque()
        self._put_waiters: deque[StorePut] = deque()
        self._get_waiters: deque[StoreGet] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the returned event fires once it is stored."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Retrieve the oldest item; the event's value is the item."""
        return StoreGet(self)

    # -- internals ------------------------------------------------------

    def _enqueue_put(self, event: StorePut) -> None:
        waiters = self._put_waiters
        waiters.append(event)
        self.env._note_waiters(len(waiters))
        self._dispatch()

    def _enqueue_get(self, event: StoreGet) -> None:
        waiters = self._get_waiters
        waiters.append(event)
        self.env._note_waiters(len(waiters))
        self._dispatch()

    def _dispatch(self) -> None:
        # Alternate put/get matching until no more progress can be made.
        puts = self._put_waiters
        gets = self._get_waiters
        items = self.items
        capacity = self._capacity
        progress = True
        while progress:
            progress = False
            while puts:
                put = puts[0]
                if put.triggered or put._cancelled:
                    puts.popleft()
                    continue
                if len(items) < capacity:
                    items.append(put.item)
                    put.succeed(priority=NORMAL)
                    puts.popleft()
                    progress = True
                else:
                    break
            while gets:
                get = gets[0]
                if get.triggered or get._cancelled:
                    gets.popleft()
                    continue
                if items:
                    get.succeed(items.popleft(), priority=NORMAL)
                    gets.popleft()
                    progress = True
                else:
                    break
