"""The run-wide happens-before + dataflow DAG.

Nodes are timestamped *events*, not intervals: every telemetry span
contributes a ``span.start`` and a ``span.end`` event, and every
cross-component interaction the capture layer observed (RPC send and
rank-grant, store write and read, scheduler grant, raptor dispatch,
fault window open/close) contributes one event at the simulated time it
happened.  Edges are typed happens-before constraints; the invariant
every edge satisfies — pinned by the validators and the Hypothesis
battery — is ``src.t <= dst.t`` in simulated time.

The event formulation is what PROBE's ``hb_graph`` uses and it is what
makes critical-path attribution exact: walking backward from ``run.end``
along most-constraining in-edges yields a chain whose edge durations
telescope to precisely the end-to-end makespan, so every second of the
run is attributed to exactly one typed edge.

Storage is columnar (DESIGN.md section 3f, "Storage"): one array per
event field and per edge endpoint, strings interned into one table,
attributes kept only where non-empty, and CSR in/out adjacency built on
the first query.  :class:`ProvEvent` and :class:`ProvEdge` are read-only
views over those columns.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from collections.abc import Sequence
from itertools import accumulate, islice
from operator import index as as_index
from operator import sub
from types import MappingProxyType
from typing import Any, Iterator, Mapping

__all__ = ["EDGE_KINDS", "EVENT_KINDS", "ProvEdge", "ProvEvent", "ProvGraph"]

#: Every event kind the builder emits.
EVENT_KINDS: tuple[str, ...] = (
    "run.start",
    "run.end",
    "span.start",
    "span.end",
    "rpc.send",
    "rpc.grant",
    "store.write",
    "store.read",
    "sched.grant",
    "raptor.submit",
    "raptor.dispatch",
    "fault.start",
    "fault.end",
)

#: The edge taxonomy (DESIGN.md section 3f).  "Wait" kinds carry the
#: time a consumer spent blocked on a producer; structural kinds
#: (run/span/program/join) stitch the per-task trees into one DAG.
EDGE_KINDS: tuple[str, ...] = (
    "run",            # run.start -> trace roots / fault events -> run.end
    "span",           # span.start -> span.end (the interval itself)
    "program",        # sequential program order within one span
    "join",           # child span.end -> parent span.end
    "rpc.wire",       # client rpc.send -> server rpc.serve start
    "rpc.queue",      # rpc.serve start -> rank grant (ingest queueing)
    "wait-on-grant",  # agent.schedule start -> scheduler grant
    "launch",         # scheduler grant -> agent.execute start
    "raptor.queue",   # raptor.submit -> raptor.dispatch (backlog wait)
    "raptor.dispatch",  # raptor.dispatch -> raptor.call start
    "wait-on-store",  # store.write -> store.read (dataflow)
    "fault.window",   # fault.start -> fault.end
)

#: What a view with no attributes returns: shared, so reading never allocates.
_NO_ATTRS: Mapping[str, Any] = MappingProxyType({})


class ProvEvent:
    """Read-only view of one timestamped node of a :class:`ProvGraph`."""

    __slots__ = ("_graph", "_eid")

    def __init__(self, graph: ProvGraph, eid: int) -> None:
        self._graph = graph
        self._eid = eid

    @property
    def eid(self) -> int:
        return self._eid

    @property
    def kind(self) -> str:
        return self._graph._name(self._graph._kind[self._eid])

    @property
    def t(self) -> float:
        return self._graph.times[self._eid]

    @property
    def label(self) -> str:
        return self._graph._name(self._graph._label[self._eid])

    @property
    def ref(self) -> str:
        """Stable external identity: task/request uid, span id, store name."""
        return self._graph._name(self._graph._ref[self._eid])

    @property
    def component(self) -> str:
        """Telemetry component track the event belongs to ("" if none)."""
        return self._graph._name(self._graph._component[self._eid])

    @property
    def attrs(self) -> Mapping[str, Any]:
        attrs = self._graph._event_attrs.get(self._eid)
        return _NO_ATTRS if attrs is None else MappingProxyType(attrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvEvent):
            return NotImplemented
        return self._graph is other._graph and self._eid == other._eid

    def __hash__(self) -> int:
        return hash((id(self._graph), self._eid))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProvEvent #{self.eid} {self.kind} {self.label!r} t={self.t:g}>"


class ProvEdge:
    """Read-only view of one typed happens-before constraint."""

    __slots__ = ("_graph", "_index")

    def __init__(self, graph: ProvGraph, index: int) -> None:
        self._graph = graph
        self._index = index

    @property
    def src(self) -> int:
        return self._graph.src[self._index]

    @property
    def dst(self) -> int:
        return self._graph.dst[self._index]

    @property
    def kind(self) -> str:
        return self._graph._name(self._graph._edge_kind[self._index])

    @property
    def t_src(self) -> float:
        return self._graph.times[self._graph.src[self._index]]

    @property
    def t_dst(self) -> float:
        return self._graph.times[self._graph.dst[self._index]]

    @property
    def duration(self) -> float:
        return self.t_dst - self.t_src

    @property
    def attrs(self) -> Mapping[str, Any]:
        attrs = self._graph._edge_attrs.get(self._index)
        return _NO_ATTRS if attrs is None else MappingProxyType(attrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvEdge):
            return NotImplemented
        return self._graph is other._graph and self._index == other._index

    def __hash__(self) -> int:
        return hash((id(self._graph), self._index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProvEdge {self.kind} #{self.src}->#{self.dst} "
            f"[{self.t_src:g}, {self.t_dst:g}]>"
        )


class _Views(Sequence):
    """``graph.events`` / ``graph.edges``: views in id order."""

    __slots__ = ("_graph", "_view", "_column")

    def __init__(self, graph: ProvGraph, view: type, column: array) -> None:
        self._graph = graph
        self._view = view
        self._column = column

    def __len__(self) -> int:
        return len(self._column)

    def __getitem__(self, i: int) -> Any:
        return self._view(self._graph, range(len(self._column))[as_index(i)])

    def __iter__(self) -> Iterator[Any]:
        graph, view = self._graph, self._view
        return (view(graph, i) for i in range(len(self._column)))


def _group(keys: array, n: int) -> tuple[array, array]:
    """CSR of ``keys`` (one node id per edge) by a stable counting sort.

    Node ``v``'s edges are ``ids[ptr[v]:ptr[v + 1]]``, in creation order.
    """
    ptr = array("i", [0]) * (n + 1)
    for key in keys:
        ptr[key + 1] += 1
    ptr = array("i", accumulate(ptr))
    ids = array("i", [0]) * len(keys)
    fill = ptr.tolist()
    for edge, key in enumerate(keys):
        ids[fill[key]] = edge
        fill[key] += 1
    return ptr, ids


class ProvGraph:
    """Event DAG stored as columns, with CSR in/out adjacency.

    Build-only structure: events and edges are appended and never
    removed, so an event's id is its index in the event columns and
    iteration order is creation order (deterministic per run).
    ``times``, ``src`` and ``dst`` are public for whole-graph scans;
    everything else is read through the views.
    """

    def __init__(self) -> None:
        #: string -> id; ids are dense and in first-seen order.
        self._ids: dict[str, int] = {}
        #: id -> string, extended lazily from ``_ids``.
        self._names: list[str] = []
        #: Event columns, indexed by event id.
        self.times = array("d")
        self._kind = array("i")
        self._label = array("i")
        self._ref = array("i")
        self._component = array("i")
        self._event_attrs: dict[int, dict[str, Any]] = {}
        #: Edge columns, indexed by edge position.
        self.src = array("i")
        self.dst = array("i")
        self._edge_kind = array("i")
        self._edge_attrs: dict[int, dict[str, Any]] = {}
        #: (in_ptr, in_ids, out_ptr, out_ids) for (events, edges) = ``_csr_shape``.
        self._csr = (*_group(self.dst, 0), *_group(self.src, 0))
        self._csr_shape = (0, 0)
        self.root: ProvEvent | None = None
        self.end: ProvEvent | None = None
        #: task uid -> (span.start event, span.end event) of its root span.
        self.task_events: dict[str, tuple[ProvEvent, ProvEvent]] = {}
        #: span_id -> (span.start event, span.end event).
        self.span_events: dict[int, tuple[ProvEvent, ProvEvent]] = {}

    def __len__(self) -> int:
        return len(self.times)

    @property
    def events(self) -> Sequence[ProvEvent]:
        return _Views(self, ProvEvent, self.times)

    @property
    def edges(self) -> Sequence[ProvEdge]:
        return _Views(self, ProvEdge, self.src)

    def _name(self, sid: int) -> str:
        names = self._names
        if sid >= len(names):
            names.extend(islice(self._ids, len(names), None))
        return names[sid]

    # -- construction --------------------------------------------------

    def append_event(
        self,
        kind: str,
        t: float,
        label: str,
        ref: str = "",
        component: str = "",
        attrs: dict[str, Any] | None = None,
    ) -> int:
        """:meth:`add_event` without the view: returns the new event id."""
        ids = self._ids
        eid = len(self.times)
        self.times.append(t)
        self._kind.append(ids.setdefault(kind, len(ids)))
        self._label.append(ids.setdefault(label, len(ids)))
        self._ref.append(ids.setdefault(ref, len(ids)))
        self._component.append(ids.setdefault(component, len(ids)))
        if attrs:
            self._event_attrs[eid] = attrs
        return eid

    def append_edge(
        self, src: int, dst: int, kind: str, attrs: dict[str, Any] | None = None
    ) -> int:
        """:meth:`add_edge` on event ids: returns the new edge's position."""
        ids = self._ids
        index = len(self.src)
        self.src.append(src)
        self.dst.append(dst)
        self._edge_kind.append(ids.setdefault(kind, len(ids)))
        if attrs:
            self._edge_attrs[index] = attrs
        return index

    def add_event(
        self,
        kind: str,
        t: float,
        label: str,
        ref: str = "",
        component: str = "",
        **attrs: Any,
    ) -> ProvEvent:
        return ProvEvent(self, self.append_event(kind, t, label, ref, component, attrs))

    def add_edge(
        self, src: ProvEvent | int, dst: ProvEvent | int, kind: str, **attrs: Any
    ) -> ProvEdge:
        index = self.append_edge(_eid(src), _eid(dst), kind, attrs)
        return ProvEdge(self, index)

    def annotate_edge(self, index: int, **attrs: Any) -> None:
        """Add attributes to the edge at ``index``."""
        self._edge_attrs.setdefault(index, {}).update(attrs)

    # -- navigation ----------------------------------------------------

    def _adjacency(self) -> tuple[array, array, array, array]:
        """CSR (in_ptr, in_ids, out_ptr, out_ids), rebuilt after appends."""
        shape = (len(self.times), len(self.src))
        if shape != self._csr_shape:
            n = shape[0]
            self._csr = (*_group(self.dst, n), *_group(self.src, n))
            self._csr_shape = shape
        return self._csr

    def in_edges(self, event: ProvEvent | int) -> list[ProvEdge]:
        eid = _eid(event)
        ptr, ids, _, _ = self._adjacency()
        return [ProvEdge(self, i) for i in ids[ptr[eid] : ptr[eid + 1]]]

    def out_edges(self, event: ProvEvent | int) -> list[ProvEdge]:
        eid = _eid(event)
        _, _, ptr, ids = self._adjacency()
        return [ProvEdge(self, i) for i in ids[ptr[eid] : ptr[eid + 1]]]

    def in_degrees(self) -> list[int]:
        """Number of in-edges of every event, by event id."""
        ptr = self._adjacency()[0]
        return list(map(sub, islice(ptr, 1, None), ptr))

    def event(self, eid: int) -> ProvEvent:
        return ProvEvent(self, range(len(self.times))[eid])

    def by_kind(self, kind: str) -> Iterator[ProvEvent]:
        wanted = self._ids.get(kind)
        return (ProvEvent(self, eid) for eid, k in enumerate(self._kind) if k == wanted)

    # -- summaries -----------------------------------------------------

    def _counts(self, column: array) -> dict[str, int]:
        return dict(sorted((self._name(k), n) for k, n in Counter(column).items()))

    def event_counts(self) -> dict[str, int]:
        return self._counts(self._kind)

    def edge_counts(self) -> dict[str, int]:
        return self._counts(self._edge_kind)

    # -- whole-graph algorithms ---------------------------------------

    def topo_order(self) -> list[int] | None:
        """Kahn topological order of event ids; None if cyclic."""
        indegree = self.in_degrees()
        _, _, ptr, ids = self._adjacency()
        dst = self.dst
        ready = deque(eid for eid, d in enumerate(indegree) if d == 0)
        order: list[int] = []
        while ready:
            eid = ready.popleft()
            order.append(eid)
            for index in ids[ptr[eid] : ptr[eid + 1]]:
                node = dst[index]
                indegree[node] -= 1
                if indegree[node] == 0:
                    ready.append(node)
        if len(order) != len(indegree):
            return None
        return order

    def reachable_from(self, event: ProvEvent | int) -> set[int]:
        """Event ids reachable from ``event`` along forward edges."""
        start = _eid(event)
        _, _, ptr, ids = self._adjacency()
        dst = self.dst
        seen = {start}
        frontier = deque((start,))
        while frontier:
            eid = frontier.popleft()
            for index in ids[ptr[eid] : ptr[eid + 1]]:
                node = dst[index]
                if node not in seen:
                    seen.add(node)
                    frontier.append(node)
        return seen


def _eid(event: ProvEvent | int) -> int:
    return event.eid if isinstance(event, ProvEvent) else event
