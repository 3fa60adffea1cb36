"""Lightweight tracing for simulation runs.

A :class:`Tracer` accumulates timestamped records grouped by category.
All subsystems (RP scheduler, SOMA service, monitors) emit through a
shared tracer, and it is the run's only point-event log: post-run
consumers (timelines, utilization plots, overhead accounting, the
Chrome trace export, provenance grants) read it rather than keeping
copies of their own.

A stored record is a :class:`TraceRecord`, or a domain record that
carries its own trace shape: an RP task's profile record is its
transition's trace record too, so each transition is kept once.  A
:class:`TraceRecord` is stored schema-once: a run emits tens of
thousands of records but only a handful of distinct key sets, so each
record keeps its tracer's shared key tuple and a tuple of its values,
and its ``data`` dict is rebuilt on each read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from .core import Environment

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One timestamped observation.

    ``keys`` is the key tuple its :class:`Tracer` shares among every
    record with the same key set, in emission order; ``values`` holds
    this record's values in that order.  ``data`` is a fresh dict on
    each read, owned by the reader: writing into it changes nothing
    stored.
    """

    time: float
    category: str
    name: str
    keys: tuple[str, ...]
    values: tuple[Any, ...]

    @property
    def data(self) -> dict[str, Any]:
        return dict(zip(self.keys, self.values))

    def get(self, key: str, default: Any = None) -> Any:
        return self.values[self.keys.index(key)] if key in self.keys else default


class Tracer:
    """Collects the run's records.  It has no switch: it keeps them all.

    Categories are free-form strings ("rp.alloc", "soma.publish",
    "hw.sample", ...).  :meth:`record` builds a :class:`TraceRecord`;
    :meth:`add` keeps a domain record that carries its own trace shape.
    Either way a record has a ``time``, a ``category``, a ``name`` and
    a ``data`` dict, fresh on each read.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._records: list[Any] = []
        #: Each distinct key tuple once, shared by every record using it.
        self._schemas: dict[tuple[str, ...], tuple[str, ...]] = {}

    def record(self, category: str, name: str, **data: Any) -> None:
        """Record an observation at the current simulated time."""
        keys = tuple(data)
        keys = self._schemas.setdefault(keys, keys)
        values = tuple(data.values())
        self._records.append(TraceRecord(self.env.now, category, name, keys, values))

    def add(self, record: Any) -> None:
        """Store a domain record that carries its own trace shape."""
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._records)

    @property
    def records(self) -> list[Any]:
        return self._records

    def count(self, category: str) -> int:
        """Stored records of ``category``."""
        return sum(1 for rec in self._records if rec.category == category)

    def select(
        self,
        category: str | None = None,
        name: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[Any]:
        """Filter stored records."""

        def keep(rec: Any) -> bool:
            if category is not None and rec.category != category:
                return False
            if name is not None and rec.name != name:
                return False
            if since is not None and rec.time < since:
                return False
            if until is not None and rec.time > until:
                return False
            return True

        return [rec for rec in self._records if keep(rec)]

    def categories(self) -> set[str]:
        return {rec.category for rec in self._records}
