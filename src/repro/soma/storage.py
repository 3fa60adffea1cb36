"""Time-indexed storage behind each SOMA service instance.

Each namespace instance stores the Conduit trees its clients publish,
keyed by arrival time and source.  Analysis code queries these stores
online (through the service) or offline (after the run).

At rest a record keeps its tree's pickled
:meth:`~repro.conduit.Node.to_dict` mirror, one ``bytes`` object, not a
live tree: a stored record is immutable by construction, its payload
takes a fraction of the tree's memory, and the cyclic GC never walks
it.
"""

from __future__ import annotations

import bisect
import pickle
from dataclasses import dataclass, field
from typing import Iterator

from ..conduit import Node

__all__ = ["PublishedRecord", "NamespaceStore"]


@dataclass(frozen=True, slots=True)
class PublishedRecord:
    """One published Conduit tree, kept serialized.

    ``data`` is a fresh tree rebuilt on every read and owned by the
    reader: changing it changes nothing stored, and two reads never
    share a node or a list.  A reader that walks a record more than
    once should read ``data`` once.
    """

    time: float
    source: str
    #: The tree's pickled ``to_dict()`` mirror, written by
    #: :meth:`NamespaceStore.append` (the only bytes ``data`` unpickles).
    blob: bytes = field(repr=False)
    nbytes: float

    @property
    def data(self) -> Node:
        return Node.from_mirror(pickle.loads(self.blob))


class NamespaceStore:
    """Append-mostly, time-ordered store for one namespace."""

    def __init__(self, namespace: str) -> None:
        self.namespace = namespace
        self._records: list[PublishedRecord] = []
        self._times: list[float] = []
        #: Per-source (times, records) parallel lists, maintained on
        #: append so per-source queries never scan the whole store.
        #: Both use bisect_right on insert, so each per-source list is
        #: exactly the global list filtered to that source.
        self._by_source: dict[str, tuple[list[float], list[PublishedRecord]]] = {}
        self.total_bytes = 0.0
        #: Provenance taps (see repro.provenance.builder.watch_store).
        #: Both are plain callables fired synchronously from host code;
        #: None means nobody is watching and costs one attribute check.
        self.write_tap = None
        self.read_tap = None

    def __len__(self) -> int:
        return len(self._records)

    def append(
        self, time: float, source: str, data: Node, nbytes: float | None = None
    ) -> PublishedRecord:
        """Store a snapshot of one published tree.

        The tree is serialized here, so later changes to ``data`` do not
        reach the store.  ``nbytes`` is the size the publisher already
        charged for (the service passes the request's
        ``payload_bytes``), so a publish walks its tree once.  Offline
        and test appends leave it out and the tree is sized here.
        """
        if nbytes is None:
            nbytes = data.nbytes()
        record = PublishedRecord(
            time=time,
            source=source,
            blob=pickle.dumps(data.to_dict(), 5),
            nbytes=nbytes,
        )
        # Publishes arrive in RPC-completion order, which is time order
        # within one environment; insort keeps us safe regardless.
        if self._times and time < self._times[-1]:
            idx = bisect.bisect_right(self._times, time)
            self._times.insert(idx, time)
            self._records.insert(idx, record)
        else:
            self._times.append(time)
            self._records.append(record)
        index = self._by_source.get(source)
        if index is None:
            index = self._by_source[source] = ([], [])
        stimes, srecords = index
        if stimes and time < stimes[-1]:
            idx = bisect.bisect_right(stimes, time)
            stimes.insert(idx, time)
            srecords.insert(idx, record)
        else:
            stimes.append(time)
            srecords.append(record)
        self.total_bytes += nbytes
        if self.write_tap is not None:
            self.write_tap(record)
        return record

    # -- queries ----------------------------------------------------------

    def records(
        self,
        source: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[PublishedRecord]:
        if source is None:
            times, records = self._times, self._records
        else:
            index = self._by_source.get(source)
            if index is None:
                return []
            times, records = index
        lo = 0 if since is None else bisect.bisect_left(times, since)
        hi = len(times) if until is None else bisect.bisect_right(times, until)
        result = records[lo:hi]
        if self.read_tap is not None:
            self.read_tap("records", source, result)
        return result

    def latest(self, source: str | None = None) -> PublishedRecord | None:
        if source is None:
            record = self._records[-1] if self._records else None
        else:
            index = self._by_source.get(source)
            record = index[1][-1] if index else None
        if self.read_tap is not None:
            self.read_tap("latest", source, [record] if record else [])
        return record

    def sources(self) -> set[str]:
        return set(self._by_source)

    def merged(
        self,
        source: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> Node:
        """One Conduit tree merging stored publishes in range.

        ``source`` narrows the merge to one publisher via the
        per-source index, so inspecting a single monitor no longer
        pays for merging the whole namespace.
        """
        root = Node()
        for record in self.records(source=source, since=since, until=until):
            root.update(record.data)
        return root

    def __iter__(self) -> Iterator[PublishedRecord]:
        if self.read_tap is not None:
            self.read_tap("iter", None, self._records)
        return iter(self._records)
