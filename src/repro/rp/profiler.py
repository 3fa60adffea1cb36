"""RP profile files, and the run's task transitions as columns.

RADICAL-Pilot writes timestamped profile records as it drives its state
machines; the paper's *RP monitoring client* "periodically reads the
appropriate profile files generated by RP, summarizes basic statistics
... and publishes the same to the SOMA service processes".

Each task transition is one row of the run's :class:`TransitionLog`:
its time in a float array, its task, event, state and node as small
integer codes into tables the log owns.  A task's history, the profile
store and the run's trace hold row ids, and a reader gets a fresh
:class:`ProfileRecord` for each row it reads (:class:`Transitions`).

We model the profile store as an append-only log of those rows with
cursor-based reads.  Crucially, reads go through a single-writer I/O
lock shared with the agent's updater — the mechanism by which frequent
monitoring perturbs the workflow (Fig 11): while the monitor parses a
large profile, task state updates queue behind it.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Generator, Hashable, Iterator

from ..messaging.protocol import ServiceUnavailable
from ..sim.core import Environment, Event
from ..sim.resources import Resource
from ..sim.trace import Tracer
from .states import TaskState

__all__ = ["ProfileRecord", "ProfileStore", "TransitionLog", "Transitions"]


@dataclass(frozen=True, slots=True)
class ProfileRecord:
    """One line in an RP profile file, and its transition's trace record
    (``rp.state`` or ``rp.event``, named by the entity).  ``node=None``
    marks a transition applied outside the updater and the client feed
    (a cancel, an interrupted or crashed execution): its trace ``data``
    has no ``node`` key.  A run stores none: its :class:`TransitionLog`
    builds a fresh record for each row read."""

    time: float
    entity: str  # task / pilot / agent uid
    event: str  # "state" or a sub-state event
    state: str
    node: str | None = ""

    @property
    def category(self) -> str:
        return "rp.state" if self.event == "state" else "rp.event"

    @property
    def name(self) -> str:
        return self.entity

    @property
    def data(self) -> dict[str, Any]:
        data = {"state": self.state} if self.event == "state" else {"event": self.event}
        if self.node is not None:
            data["node"] = self.node
        return data


class _Codes(dict):
    """One interned column: maps each distinct value to its small-int
    code, the next one for a value not seen before, and keeps each
    row's code in ``codes``: one byte until the 257th value, then four.
    """

    def __init__(self, *values: Hashable) -> None:
        super().__init__((value, code) for code, value in enumerate(values))
        #: The distinct values, by code.
        self.values: list[Any] = list(values)
        self.codes = array("B")

    def __missing__(self, value: Hashable) -> int:
        code = self[value] = len(self.values)
        self.values.append(value)
        if code == 256:
            self.codes = array("I", self.codes)
        return code

    def at(self, row: int) -> Any:
        """The value of ``row``."""
        return self.values[self.codes[row]]


class TransitionLog:
    """Every task transition of one run, one row each, as columns.

    The row's id is its index.  ``event`` code 0 is ``"state"`` (a
    state transition) and ``state`` code 0 is ``NEW``; ``node`` keeps
    ``None`` apart from ``""`` and ``"client"``.  Every row but a
    task's ``NEW`` row is traced in its place, as the transition's
    ``rp.state`` or ``rp.event`` record.  The code tables belong to
    the log, so a run's codes depend on that run alone.  About 15 B a
    row (the time, a 4 B task code and three 1 B codes) against
    about 100 B for a stored :class:`ProfileRecord` and its time.
    """

    trace_categories = frozenset({"rp.state", "rp.event"})

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.time = array("d")
        self.entity = _Codes()
        self.event = _Codes("state")
        self.state = _Codes(TaskState.NEW)
        self.node = _Codes(None)

    def append(
        self, time: float, entity: str, event: str, state: str, node: str | None
    ) -> int:
        """Add a row, trace it unless it is a ``NEW`` row; return its id."""
        row = len(self.time)
        self.time.append(time)
        # Spelled out per column, not a loop or a call: this runs once
        # per task transition.  Each code is taken before its ``codes``,
        # which a new value may widen.
        code = self.entity[entity]
        self.entity.codes.append(code)
        code = self.event[event]
        self.event.codes.append(code)
        code = self.state[state]
        self.state.codes.append(code)
        code = self.node[node]
        self.node.codes.append(code)
        if event != "state" or state != TaskState.NEW:
            self.tracer.add(self)
        return row

    def record(self, row: int) -> ProfileRecord:
        """A fresh record of ``row``."""
        return ProfileRecord(
            self.time[row],
            self.entity.at(row),
            self.event.at(row),
            self.state.at(row),
            self.node.at(row),
        )

    def time_of(self, rows: array, name: str) -> float | None:
        """Time of the first of ``rows`` that is event ``name`` or a
        transition to state ``name``; builds no record."""
        event, state = self.event.get(name, -1), self.state.get(name, -1)
        events, states, times = self.event.codes, self.state.codes, self.time
        for row in rows:
            code = events[row]
            if code == event or (code == 0 and states[row] == state):
                return times[row]
        return None

    # -- the tracer's row source ------------------------------------------

    def traced(self) -> Iterator[int]:
        events, states = self.event.codes, self.state.codes
        return (row for row in range(len(self.time)) if events[row] or states[row])

    def trace_key(self, row: int) -> tuple[str, str]:
        category = "rp.event" if self.event.codes[row] else "rp.state"
        return category, self.entity.at(row)


class Transitions(Sequence):
    """Read-only records of some rows of a :class:`TransitionLog`.

    ``rows`` holds row ids.  Reading an item builds a fresh
    :class:`ProfileRecord`, a slice builds a list of them, and ``len``
    builds nothing, so a reader pays only for the rows it takes.
    """

    __slots__ = ("_log", "_rows")

    def __init__(self, log: TransitionLog, rows: array) -> None:
        self._log = log
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int | slice) -> ProfileRecord | list[ProfileRecord]:
        if isinstance(index, slice):
            return [self._log.record(row) for row in self._rows[index]]
        return self._log.record(self._rows[index])

    def __iter__(self) -> Iterator[ProfileRecord]:
        return map(self._log.record, self._rows)


class ProfileStore:
    """Append-only profile log with a shared writer/reader lock.

    It keeps the row ids of the persisted transitions of ``log``, in
    write order.  ``write_time`` and ``read_time_per_record`` model the
    file-system cost; both writer (agent updater) and readers (RP
    monitor) hold the same lock, serializing access.
    """

    def __init__(
        self,
        env: Environment,
        log: TransitionLog,
        write_time: float = 2e-4,
        read_time_per_record: float = 1.5e-6,
        read_time_base: float = 5e-3,
        read_max_records: int = 20000,
    ) -> None:
        self.env = env
        self.log = log
        #: Row ids of ``log``, one per persisted profile line.
        self.rows = array("i")
        self._io = Resource(env, capacity=1)
        self.write_time = write_time
        self.read_time_per_record = read_time_per_record
        self.read_time_base = read_time_base
        #: Cap on the records whose parse cost is charged per read —
        #: a sane client only summarizes a bounded trailing window.
        self.read_max_records = read_max_records
        self.reads = 0
        self.writes = 0
        #: Fault hook: a profile-store outage makes locked reads and
        #: writes raise :class:`ServiceUnavailable` until restored.
        self.available = True
        self.rejected = 0

    def set_available(self, flag: bool) -> None:
        self.available = bool(flag)

    def _check_available(self, op: str) -> None:
        if not self.available:
            self.rejected += 1
            raise ServiceUnavailable(f"profile store unavailable ({op})")

    def __len__(self) -> int:
        return len(self.rows)

    # -- writer side (agent updater) ------------------------------------

    def append(self, row: int) -> None:
        """Record synchronously (the I/O cost is charged by the caller
        via :meth:`write_locked` when fidelity matters)."""
        self.rows.append(row)
        self.writes += 1

    def write_locked(self, row: int) -> Generator[Event, None, None]:
        """Append under the I/O lock, paying the write latency."""
        self._check_available("write")
        with self._io.request() as lock:
            yield lock
            self._check_available("write")
            if self.write_time > 0:
                yield self.env.timeout(self.write_time)
            self.rows.append(row)
            self.writes += 1

    # -- reader side (RP monitoring client) --------------------------------

    def read_since(
        self, cursor: int
    ) -> Generator[Event, None, tuple[Transitions, int]]:
        """Read records after ``cursor`` under the I/O lock.

        Returns (new_records, new_cursor); ``new_records`` is fixed at
        the read and builds a record only for each item taken from it.
        The hold time scales with the number of records that must be
        scanned — profile files are re-parsed from the cursor, so cost
        grows with workflow size.
        """
        self._check_available("read")
        with self._io.request() as lock:
            yield lock
            self._check_available("read")
            end = len(self.rows)
            scanned = min(end - cursor, self.read_max_records)
            hold = self.read_time_base + scanned * self.read_time_per_record
            if hold > 0:
                yield self.env.timeout(hold)
            self.reads += 1
            return Transitions(self.log, self.rows[cursor:end]), end

    def snapshot(self) -> list[ProfileRecord]:
        """Lock-free full copy (analysis after the run)."""
        return list(Transitions(self.log, self.rows))
