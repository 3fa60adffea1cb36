"""Discrete-event simulation kernel.

This module provides the event loop at the bottom of the whole
reproduction stack: a generator-coroutine process model in the style of
SimPy, written from scratch.  Every other subsystem (the platform model,
the RADICAL-Pilot runtime, the SOMA service, the monitors) is a set of
processes scheduled on one :class:`Environment`.

Design notes
------------
* Pending events live in one binary heap, a plain ``heapq`` list of
  ``(time, priority, eid, event)`` entries owned by the environment.
  ``eid`` is a unique, increasing sequence number, so the order is
  total: simultaneous events run URGENT before NORMAL and, within a
  priority class, in the order they were scheduled (FIFO).  That makes
  every experiment in this repository reproducible bit-for-bit for a
  given seed.
* Processes are plain Python generators that ``yield`` events.  When the
  yielded event fires, the process is resumed with the event's value (or
  the exception, if the event failed).
* Interrupts are delivered by throwing :class:`Interrupt` into the
  generator, as in SimPy; shutdowns, task cancels and deadlines use
  them to stop a process mid-wait.
* Scheduled events can be *dismissed* (:meth:`Event.cancel_scheduled`):
  the heap entry is left in place as a tombstone and skipped when it
  reaches the head, which is O(1) instead of an O(n) removal plus
  re-heapify.  Rate-sharing pools re-arm their completion timers this
  way on every membership change.
* The environment keeps lightweight kernel counters (events scheduled,
  peak heap size, tombstones skipped, longest waiter queue) so the
  end-to-end ledger in ``benchmarks/e2e`` can observe regressions.
"""

from __future__ import annotations

import os
from collections.abc import Generator, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.spans import Telemetry
    from .sanitizer import KernelSanitizer, SanitizerFinding, SharedDict

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "PENDING",
    "URGENT",
    "NORMAL",
    "Switches",
    "observability",
    "switches",
]


class Switches(NamedTuple):
    """The observability features a run turns on when it is built."""

    telemetry: bool
    provenance: bool
    sanitize: bool


#: The open :func:`observability` scopes, innermost last, each with the
#: list of enabled hubs built inside it.
_SCOPES: ContextVar[tuple[tuple[Switches, list[Telemetry]], ...]] = ContextVar(
    "observability", default=()
)


def switches() -> Switches:
    """The innermost scope's switches, else the ``REPRO_*`` variables."""
    scopes = _SCOPES.get()
    if scopes:
        return scopes[-1][0]
    return Switches(
        *(
            os.environ.get(f"REPRO_{name.upper()}", "").strip().lower()
            in ("1", "true", "yes", "on")
            for name in Switches._fields
        )
    )


@contextmanager
def observability(
    *,
    telemetry: bool | None = None,
    provenance: bool | None = None,
    sanitize: bool | None = None,
) -> Iterator[list[Telemetry]]:
    """Switch observability for the runs built inside; yields their hubs.

    A switch left ``None`` keeps the enclosing value: the enclosing
    scope's, or outside any scope the ``REPRO_*`` variable's.  An
    :class:`Environment` and a telemetry hub read the switches once,
    when built.  The yielded list receives every enabled hub built
    inside the scope, nested scopes included, and is the only thing
    that keeps them.  The enclosing switches come back on exit, also
    on an exception.
    """
    outer = switches()
    inner = Switches(
        *(
            old if new is None else bool(new)
            for old, new in zip(outer, (telemetry, provenance, sanitize))
        )
    )
    hubs: list[Telemetry] = []
    token = _SCOPES.set(_SCOPES.get() + ((inner, hubs),))
    try:
        yield hubs
    finally:
        _SCOPES.reset(token)


def keep_hub(hub: Telemetry) -> None:
    """Hand an enabled hub to every open scope."""
    for _, hubs in _SCOPES.get():
        hubs.append(hub)


#: Sentinel for an event value that has not been produced yet.
PENDING = object()

#: Scheduling priority for events that must run before normal events at
#: the same timestamp (used by resource bookkeeping).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run`."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process when it is interrupted.

    Parameters
    ----------
    cause:
        Arbitrary object describing why the interrupt happened.  The
        interrupted process can inspect it via ``exc.cause``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event goes through three phases: *untriggered* (just created),
    *triggered* (scheduled on the event queue with a value or an
    exception), and *processed* (its callbacks have run).  Processes wait
    on events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event once it is processed.
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.callbacks is None
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at t={self.env.now}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value (or failure) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on this
        event.  If nobody waits, it propagates out of ``run()`` unless
        :meth:`defuse` was called.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not crash the run."""
        self._defused = True

    def cancel_scheduled(self) -> None:
        """Dismiss a scheduled-but-unprocessed event (lazy tombstone).

        The heap entry stays where it is; :meth:`Environment.step` skips
        it without running callbacks once it reaches the head.  Only
        valid for events no process waits on (the registered callbacks
        are dropped) — resources and stores use their own ``cancel``
        protocols for waited-on events.
        """
        self.callbacks = None


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which compares false
            raise ValueError(f"delay must be >= 0, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Process(Event):
    """A process is both an executor of a generator and an event.

    As an event it fires when the generator terminates; its value is the
    generator's return value (via ``StopIteration.value``) or the
    exception that killed it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process currently waits on (None if running).
        self._target: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        if env._sanitizer is not None:
            env._sanitizer.on_process_start(self)
        if env._telemetry is not None:
            # Ambient span-context inheritance: the creator is still the
            # active process here, so the new process adopts its
            # innermost context (host-only bookkeeping, no events).
            env._telemetry.on_process_spawn(self)
        Initialize(env, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} at t={self.env.now}>"

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is PENDING

    @property
    def target(self) -> Event | None:
        """The event the process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        Interrupting a dead process is an error; interrupting a process
        that is about to be resumed simply beats the pending event.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} already terminated")
        if self._target is None and self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks = [self._resume]
        self.env._schedule(event, URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value of ``event``."""
        env = self.env
        env._active_process = self
        # Remove us from the old target's callbacks if we were diverted
        # (e.g. an interrupt arrived while waiting on a timeout).
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._schedule(self, NORMAL)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._defused = False
                env._schedule(self, NORMAL)
                break

            if not isinstance(next_event, Event):
                self._generator.throw(
                    SimulationError(
                        f"process {self.name!r} yielded a non-event: {next_event!r}"
                    )
                )
                continue

            if next_event.callbacks is not None and not (
                next_event.triggered and next_event.processed
            ):
                # Not yet processed: park until it fires.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            # Already processed (e.g. yielding a finished process):
            # resume immediately with its stored value.
            event = next_event
            if not event._ok and not event._defused:
                event._defused = True

        env._active_process = None
        if self._value is not PENDING:
            # The generator terminated in this resume.
            if env._sanitizer is not None:
                env._sanitizer.on_process_exit(self)
            if env._telemetry is not None:
                env._telemetry.on_process_exit(self)


class Environment:
    """The simulation environment: clock plus event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock.
    sanitize:
        Attach the runtime :class:`~repro.sim.sanitizer.KernelSanitizer`
        (event-leak, deadlock, resource-leak, and shared-dict-race
        detection).  ``None`` (the default) takes the ``sanitize``
        switch of :func:`switches`.
    """

    def __init__(self, initial_time: float = 0.0, sanitize: bool | None = None) -> None:
        self._now = float(initial_time)
        #: Pending set: a ``heapq`` list of ``(time, priority, eid, event)``.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Process | None = None
        #: The run's id mints: kind -> next number (see :meth:`new_id`).
        self._next_ids: dict[str, int] = {}
        if sanitize is None:
            sanitize = switches().sanitize
        self._sanitizer: "KernelSanitizer | None" = None
        if sanitize:
            from .sanitizer import KernelSanitizer

            self._sanitizer = KernelSanitizer(self)
        #: Attached span-tracing hub (:class:`repro.telemetry.Telemetry`
        #: installs itself here when enabled); None keeps the hot path
        #: at a single pointer check.
        self._telemetry: "Telemetry | None" = None
        #: Kernel counters — cheap integers updated on the hot path so
        #: perf benchmarks can observe scheduling behaviour.
        self.events_scheduled = 0
        self.events_executed = 0
        self.peak_heap_size = 0
        self.tombstones_skipped = 0
        #: Longest put/get/request waiter queue seen by any store or
        #: resource attached to this environment.
        self.max_waiter_queue = 0

    # -- introspection ------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    @property
    def queue_size(self) -> int:
        return len(self._queue)

    def kernel_counters(self) -> dict[str, int]:
        """Snapshot of the kernel's scheduling counters."""
        return {
            "events_scheduled": self.events_scheduled,
            "events_executed": self.events_executed,
            "peak_heap_size": self.peak_heap_size,
            "tombstones_skipped": self.tombstones_skipped,
            "max_waiter_queue": self.max_waiter_queue,
        }

    def new_id(self, kind: str) -> int:
        """The run's next id of ``kind``: 0, 1, 2, ...

        Every id a run mints comes from here (tasks, pilots, RPC
        requests, EnTK pipelines and stages, RAPTOR calls and workers),
        so it depends on the run alone, never on what the process ran
        before it.
        """
        n = self._next_ids.get(kind, 0)
        self._next_ids[kind] = n + 1
        return n

    def _note_waiters(self, length: int) -> None:
        """Record a waiter-queue length (stores/resources call this)."""
        if length > self.max_waiter_queue:
            self.max_waiter_queue = length

    # -- sanitizers ----------------------------------------------------

    @property
    def sanitizer(self) -> "KernelSanitizer | None":
        """The attached runtime sanitizer, if ``sanitize`` was enabled."""
        return self._sanitizer

    @property
    def telemetry(self) -> "Telemetry | None":
        """The attached span-tracing hub, if one enabled itself."""
        return self._telemetry

    def shared_dict(self, name: str) -> "SharedDict | dict":
        """A mapping opted in to write-between-yields race detection.

        Returns an instrumented :class:`~repro.sim.sanitizer.SharedDict`
        when the sanitizer is attached, otherwise a plain dict — callers
        use it exactly like a dict either way.
        """
        if self._sanitizer is None:
            return {}
        from .sanitizer import SharedDict

        return SharedDict(self, name)

    def sanitize_check(self, strict: bool = True) -> "list[SanitizerFinding]":
        """Teardown check: report every sanitizer finding for this run.

        Combines the spontaneous findings (resource leaks, shared-dict
        races) with the teardown analyses — events still scheduled but
        never executed, and processes blocked with no event that could
        ever wake them.  Call it when the run is *over*; mid-run, heap
        remnants and parked processes are normal.

        With ``strict`` (the default) a non-empty report raises
        :class:`~repro.sim.sanitizer.SanitizerError`; otherwise the
        findings are returned.  A no-op returning ``[]`` when the
        environment was built without ``sanitize``.
        """
        if self._sanitizer is None:
            return []
        findings = self._sanitizer.check()
        if strict and findings:
            from .sanitizer import SanitizerError

            raise SanitizerError(findings)
        return findings

    # -- factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Start a new process executing ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling ---------------------------------------------------

    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        self._eid += 1
        self.events_scheduled += 1
        queue = self._queue
        heappush(queue, (self._now + delay, priority, self._eid, event))
        if len(queue) > self.peak_heap_size:
            self.peak_heap_size = len(queue)
        if self._sanitizer is not None:
            self._sanitizer.on_schedule(self._eid, event)

    def step(self) -> None:
        """Process the single next event (no-op for tombstones).

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _prio, eid, event = heappop(self._queue)
        self._now = when
        if self._sanitizer is not None:
            self._sanitizer.on_consume(eid)
        callbacks = event.callbacks
        if callbacks is None:
            # Dismissed via cancel_scheduled(): skip without executing.
            self.tombstones_skipped += 1
            return
        event.callbacks = None
        self.events_executed += 1
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains;
        * a number — run until the clock reaches it;
        * an :class:`Event` — run until that event is processed, and
          return its value.
        """
        stop_value: Any = None
        if until is None:
            deadline = float("inf")
            stop_event: Event | None = None
        elif isinstance(until, Event):
            deadline = float("inf")
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed.
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value

            def _stop(event: Event) -> None:
                raise StopSimulation(event._value if event._ok else event)

            stop_event.callbacks.append(_stop)
        else:
            deadline = float(until)
            if not deadline >= self._now:  # also rejects NaN
                raise ValueError(
                    f"until={deadline} must be >= now ({self._now})"
                )
            stop_event = None

        queue = self._queue
        try:
            while queue:
                if queue[0][0] > deadline:
                    self._now = deadline
                    return None
                self.step()
        except StopSimulation as stop:
            value = stop.value
            if isinstance(value, Event):
                # The stop event failed; re-raise its exception.
                exc = value._value
                raise exc from None
            return value
        if deadline != float("inf") and self._now < deadline:
            self._now = deadline
        if stop_event is not None and not stop_event.triggered:
            raise SimulationError(
                "run() ended before the awaited event was triggered"
            )
        return stop_value
