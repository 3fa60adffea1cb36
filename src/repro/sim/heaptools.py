"""Audited lazy-tombstone drain helpers for heaps and deques.

Every ordered waiter structure in the kernel uses the same cancellation
discipline: a withdrawn entry is *tombstoned in place* (a flag flips,
the structure is untouched) and dropped lazily when it reaches the
head.  That keeps cancellation O(1) instead of an O(n) removal plus
re-heapify, at the cost of every consumer having to skip dead heads
correctly — historically each site re-implemented that loop by hand
(:class:`~repro.sim.resources.PriorityResource`'s heap,
:class:`~repro.sim.stores.PriorityStore`'s item heap, the FIFO waiter
deques).  The kernel's event heap skips its tombstones inline in
:meth:`~repro.sim.core.Environment.step`; everything else goes through
here.

This module is the single audited implementation of the skip loop.  The
contract all callers rely on:

* ``is_dead`` is a pure predicate — it must not mutate the entry or the
  structure (the helpers may evaluate it any number of times).
* Dead entries are only ever dropped from the *head*; interior
  tombstones stay where they are until the head reaches them, so the
  live ordering is exactly the structure's ordering with dead entries
  deleted.
* ``on_skip`` (when given) is called once per dropped entry, after the
  drop — the hook kernel counters ride.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop
from typing import Any, Callable

__all__ = [
    "drain_heap",
    "pop_live_heap",
    "peek_live_heap",
    "drain_deque",
    "peek_live_deque",
]


def drain_heap(
    heap: list,
    is_dead: Callable[[Any], bool],
    on_skip: Callable[[Any], None] | None = None,
) -> None:
    """Drop dead entries from the top of ``heap`` until the head is live.

    Leaves the heap empty, or with a live minimum entry at ``heap[0]``.
    """
    while heap and is_dead(heap[0]):
        dropped = heappop(heap)
        if on_skip is not None:
            on_skip(dropped)


def peek_live_heap(
    heap: list,
    is_dead: Callable[[Any], bool],
    on_skip: Callable[[Any], None] | None = None,
) -> Any | None:
    """The live minimum of ``heap`` (dead heads dropped), or ``None``."""
    drain_heap(heap, is_dead, on_skip)
    return heap[0] if heap else None


def pop_live_heap(
    heap: list,
    is_dead: Callable[[Any], bool] | None = None,
    on_skip: Callable[[Any], None] | None = None,
) -> Any:
    """Pop the live minimum of ``heap``.

    With ``is_dead=None`` the heap is asserted tombstone-free and this
    is a plain ``heappop`` — the calling structure guarantees no entry
    can die while buffered (e.g. :class:`~repro.sim.stores
    .PriorityStore` items, which are only ever inserted by *already
    succeeded* puts).  Raises :class:`IndexError` when no live entry
    remains, exactly like ``heappop`` on an empty heap.
    """
    if is_dead is not None:
        drain_heap(heap, is_dead, on_skip)
    return heappop(heap)


def drain_deque(
    queue: deque,
    is_dead: Callable[[Any], bool],
    on_skip: Callable[[Any], None] | None = None,
) -> None:
    """Drop dead entries from the head of ``queue`` until it is live."""
    while queue and is_dead(queue[0]):
        dropped = queue.popleft()
        if on_skip is not None:
            on_skip(dropped)


def peek_live_deque(
    queue: deque,
    is_dead: Callable[[Any], bool],
    on_skip: Callable[[Any], None] | None = None,
) -> Any | None:
    """The live head of ``queue`` (dead heads dropped), or ``None``."""
    drain_deque(queue, is_dead, on_skip)
    return queue[0] if queue else None
