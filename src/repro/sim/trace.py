"""Lightweight tracing for simulation runs.

A :class:`Tracer` accumulates timestamped records grouped by category.
All subsystems (RP scheduler, SOMA service, monitors) emit through a
shared tracer, and it is the run's only point-event log: post-run
consumers (timelines, utilization plots, overhead accounting, the
Chrome trace export, provenance grants) read it rather than keeping
copies of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .core import Environment

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One timestamped observation."""

    time: float
    category: str
    name: str
    data: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


class Tracer:
    """Collects :class:`TraceRecord` objects during a run.

    Categories are free-form strings ("rp.task", "soma.publish",
    "hw.sample", ...).  With ``enabled`` false the tracer stores nothing
    but still counts, which keeps very large runs cheap.
    """

    def __init__(self, env: Environment, enabled: bool = True) -> None:
        self.env = env
        self.enabled = enabled
        self._records: list[TraceRecord] = []
        self._counts: dict[str, int] = {}

    def record(self, category: str, name: str, **data: Any) -> None:
        """Record an observation at the current simulated time."""
        self._counts[category] = self._counts.get(category, 0) + 1
        if self.enabled:
            self._records.append(TraceRecord(self.env.now, category, name, data))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[TraceRecord]:
        return self._records

    def count(self, category: str) -> int:
        """Total records emitted for ``category`` (even if not stored)."""
        return self._counts.get(category, 0)

    def select(
        self,
        category: str | None = None,
        name: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[TraceRecord]:
        """Filter stored records."""

        def keep(rec: TraceRecord) -> bool:
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

    def clear(self) -> None:
        self._records.clear()
        self._counts.clear()
