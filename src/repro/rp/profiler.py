"""RP profile files.

RADICAL-Pilot writes timestamped profile records as it drives its state
machines; the paper's *RP monitoring client* "periodically reads the
appropriate profile files generated by RP, summarizes basic statistics
... and publishes the same to the SOMA service processes".

We model the profile store as an append-only log with cursor-based
reads.  Crucially, reads go through a single-writer I/O lock shared
with the agent's updater — the mechanism by which frequent monitoring
perturbs the workflow (Fig 11): while the monitor parses a large
profile, task state updates queue behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..messaging.protocol import ServiceUnavailable
from ..sim.core import Environment, Event
from ..sim.resources import Resource

__all__ = ["ProfileRecord", "ProfileStore"]


@dataclass(frozen=True, slots=True)
class ProfileRecord:
    """One line in an RP profile file, and its transition's trace record
    (``rp.state`` or ``rp.event``, named by the entity).  ``node=None``
    marks a transition applied outside the updater and the client feed
    (a cancel, an interrupted or crashed execution): its trace ``data``
    has no ``node`` key."""

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


class ProfileStore:
    """Append-only profile log with a shared writer/reader lock.

    ``write_time`` and ``read_time_per_record`` model the file-system
    cost; both writer (agent updater) and readers (RP monitor) hold the
    same lock, serializing access.
    """

    def __init__(
        self,
        env: Environment,
        write_time: float = 2e-4,
        read_time_per_record: float = 1.5e-6,
        read_time_base: float = 5e-3,
        read_max_records: int = 20000,
    ) -> None:
        self.env = env
        self._records: list[ProfileRecord] = []
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
        return len(self._records)

    # -- writer side (agent updater) ------------------------------------

    def append(self, record: ProfileRecord) -> None:
        """Record synchronously (the I/O cost is charged by the caller
        via :meth:`write_locked` when fidelity matters)."""
        self._records.append(record)
        self.writes += 1

    def write_locked(
        self, record: ProfileRecord
    ) -> Generator[Event, None, None]:
        """Append under the I/O lock, paying the write latency."""
        self._check_available("write")
        with self._io.request() as lock:
            yield lock
            self._check_available("write")
            if self.write_time > 0:
                yield self.env.timeout(self.write_time)
            self._records.append(record)
            self.writes += 1

    # -- reader side (RP monitoring client) --------------------------------

    def read_since(
        self, cursor: int
    ) -> Generator[Event, None, tuple[list[ProfileRecord], int]]:
        """Read records after ``cursor`` under the I/O lock.

        Returns (new_records, new_cursor).  The hold time scales with
        the number of records that must be scanned — profile files are
        re-parsed from the cursor, so cost grows with workflow size.
        """
        self._check_available("read")
        with self._io.request() as lock:
            yield lock
            self._check_available("read")
            end = len(self._records)
            scanned = min(end - cursor, self.read_max_records)
            hold = self.read_time_base + scanned * self.read_time_per_record
            if hold > 0:
                yield self.env.timeout(hold)
            self.reads += 1
            return list(self._records[cursor:end]), end

    def snapshot(self) -> list[ProfileRecord]:
        """Lock-free full copy (analysis after the run)."""
        return list(self._records)
