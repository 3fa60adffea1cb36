"""Lightweight tracing for simulation runs.

A :class:`Tracer` accumulates timestamped records grouped by category.
All subsystems (RP scheduler, SOMA service, monitors) emit through a
shared tracer, and it is the run's only point-event log: post-run
consumers (timelines, utilization plots, overhead accounting, the
Chrome trace export, provenance grants) read it rather than keeping
copies of their own.

A stored record is a :class:`TraceRecord`, or a row of the run's
:class:`RowSource`, a domain log that keeps its records as rows and
builds each one on read: RP's task transition log is the run's trace
of every task transition, so each transition is kept once, as a row.
The tracer keeps one byte per stored record for its place in the
order, and reads a row's record from its source.  A
:class:`TraceRecord` is stored schema-once: a run emits tens of
thousands of records but only a handful of distinct key sets, so each
record keeps its tracer's shared key tuple and a tuple of its values,
and its ``data`` dict is rebuilt on each read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Protocol

from .core import Environment

__all__ = ["RowSource", "TraceRecord", "Tracer"]


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


class RowSource(Protocol):
    """A domain log whose traced rows the tracer stores in their place.

    The source traces its rows in row order (:meth:`Tracer.add`, one
    call per traced row); the tracer keeps only where each one falls
    among its other records.
    """

    #: Every category a traced row can have.
    trace_categories: frozenset[str]

    def traced(self) -> Iterator[int]:
        """The ids of the traced rows, in row order."""

    def trace_key(self, row: int) -> tuple[str, str]:
        """``(category, name)`` of a row, without building its record."""

    def record(self, row: int) -> Any:
        """A fresh record of a row: ``time``, ``category``, ``name``, ``data``."""


class Tracer:
    """Collects the run's records.  It has no switch: it keeps them all.

    Categories are free-form strings ("rp.alloc", "soma.publish",
    "hw.sample", ...).  :meth:`record` builds a :class:`TraceRecord`;
    :meth:`add` stores the next traced row of a :class:`RowSource`.
    Either way a record has a ``time``, a ``category``, a ``name`` and
    a ``data`` dict, fresh on each read.  A row's record is built only
    when it is read: :meth:`select`, :meth:`count` and
    :meth:`categories` classify rows by their :meth:`RowSource.trace_key`.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._records: list[TraceRecord] = []
        #: One byte per stored record, in order: 0 takes the next
        #: TraceRecord, 1 the next traced row of ``_rows``.
        self._kinds = bytearray()
        #: The row source of :meth:`add`: the run's, so at most one.
        self._rows: RowSource | None = None
        #: Each distinct key tuple once, shared by every record using it.
        self._schemas: dict[tuple[str, ...], tuple[str, ...]] = {}

    def record(self, category: str, name: str, **data: Any) -> None:
        """Record an observation at the current simulated time."""
        keys = tuple(data)
        keys = self._schemas.setdefault(keys, keys)
        values = tuple(data.values())
        self._records.append(TraceRecord(self.env.now, category, name, keys, values))
        self._kinds.append(0)

    def add(self, rows: RowSource) -> None:
        """Store the next traced row of ``rows`` in its place."""
        if rows is not self._rows:
            if self._rows is not None:
                raise ValueError("a tracer stores the rows of one source")
            self._rows = rows
        self._kinds.append(1)

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[Any]:
        rows = self._rows
        if rows is None:
            return iter(self._records)
        records, traced = iter(self._records), rows.traced()
        return (
            rows.record(next(traced)) if kind else next(records)
            for kind in self._kinds
        )

    @property
    def records(self) -> list[Any]:
        """Every stored record, in order, in a fresh list."""
        return list(self)

    def count(self, category: str) -> int:
        """Stored records of ``category``."""
        count = sum(1 for rec in self._records if rec.category == category)
        rows = self._rows
        if rows is not None and category in rows.trace_categories:
            count += sum(
                1 for row in rows.traced() if rows.trace_key(row)[0] == category
            )
        return count

    def select(
        self,
        category: str | None = None,
        name: str | None = None,
    ) -> list[Any]:
        """Filter stored records."""

        def keep(rec_category: str, rec_name: str) -> bool:
            return (category is None or rec_category == category) and (
                name is None or rec_name == name
            )

        rows = self._rows
        if rows is None or (
            category is not None and category not in rows.trace_categories
        ):
            return [rec for rec in self._records if keep(rec.category, rec.name)]
        kept: list[Any] = []
        records, traced = iter(self._records), rows.traced()
        for kind in self._kinds:
            if kind:
                row = next(traced)
                if keep(*rows.trace_key(row)):
                    kept.append(rows.record(row))
            else:
                rec = next(records)
                if keep(rec.category, rec.name):
                    kept.append(rec)
        return kept

    def categories(self) -> set[str]:
        categories = {rec.category for rec in self._records}
        rows = self._rows
        if rows is not None:
            categories.update(rows.trace_key(row)[0] for row in rows.traced())
        return categories
