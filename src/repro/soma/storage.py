"""Time-indexed storage behind each SOMA service instance.

Each namespace instance stores the Conduit trees its clients publish,
keyed by arrival time and source.  Analysis code queries these stores
online (through the service) or offline (after the run).

A record is kept serialized, one ``bytes`` object, not a live tree: a
stored record is immutable by construction, its payload takes a
fraction of the tree's memory, and the cyclic GC never walks it.  The
payload's type selects the form:

* a tree (the RP monitor, application metrics, offline appends) keeps
  its pickled :meth:`~repro.conduit.Node.to_dict` mirror;
* rows (:mod:`repro.conduit.rows`: the hardware and TAU monitors, the
  facility's batches) keep their pickled ``(schema id, key, values)``
  tuples against the store's schema table, which holds each distinct
  schema once.  No tree is built on the write.

Either way, reading ``data`` rebuilds the same tree.
"""

from __future__ import annotations

import bisect
import pickle
from dataclasses import dataclass, field
from typing import Iterator

from ..conduit import Node
from ..conduit.rows import Row, Schema, rows_nbytes, rows_tree

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


@dataclass(frozen=True, slots=True)
class RowRecord(PublishedRecord):
    """A record published as rows: ``blob`` holds the pickled
    ``(schema id, key, values)`` tuples, and ``data`` rebuilds their
    tree from the store's schema table as it was at the append."""

    schemas: tuple[Schema, ...] = field(repr=False)

    @property
    def data(self) -> Node:
        return rows_tree(pickle.loads(self.blob), self.schemas)


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
        #: Schema table of the row records: each distinct schema once,
        #: its index the id a record's rows carry.  A new schema makes a
        #: new tuple, so the records before it keep the one they hold.
        self._schemas: tuple[Schema, ...] = ()
        self._schema_ids: dict[Schema, int] = {}
        #: Provenance taps (see repro.provenance.builder.watch_store).
        #: Both are plain callables fired synchronously from host code;
        #: None means nobody is watching and costs one attribute check.
        self.write_tap = None
        self.read_tap = None

    def __len__(self) -> int:
        return len(self._records)

    def append(
        self,
        time: float,
        source: str,
        data: "Node | list[Row]",
        nbytes: float | None = None,
    ) -> PublishedRecord:
        """Store a snapshot of one published tree, or of rows.

        The payload is serialized here, so later changes to ``data`` do
        not reach the store.  ``nbytes`` is the size the publisher
        already charged for (the service passes the request's
        ``payload_bytes``), so a publish is sized once.  Offline and
        test appends leave it out and the payload is sized here.
        """
        if type(data) is list:
            if nbytes is None:
                nbytes = rows_nbytes(data)
            ids = self._schema_ids
            packed = []
            # A publish's rows mostly share one schema (a TAU task's
            # ranks): look each distinct one up once.
            last = sid = None
            for schema, key, values in data:
                if schema is not last:
                    sid = ids.get(schema)
                    if sid is None:
                        sid = ids[schema] = len(self._schemas)
                        self._schemas += (schema,)
                    last = schema
                packed.append((sid, key, values))
            record: PublishedRecord = RowRecord(
                time=time,
                source=source,
                blob=pickle.dumps(packed, 5),
                nbytes=nbytes,
                schemas=self._schemas,
            )
        else:
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
        pays for merging the whole namespace.  Each record's rebuild is
        the merge's own, so its subtrees and leaves are taken over, not
        copied a second time.
        """
        root = Node()
        for record in self.records(source=source, since=since, until=until):
            root._merge(record.data)
        return root

    def __iter__(self) -> Iterator[PublishedRecord]:
        if self.read_tap is not None:
            self.read_tap("iter", None, self._records)
        return iter(self._records)
