"""Capture hooks and the run-graph builder.

:class:`ProvenanceCapture` rides the telemetry hub under the same hard
zero-perturbation contract: every ``note_*`` method is a host-memory
append keyed off ``env.now`` — no kernel events, no processes, no
timeouts, no randomness — so the simulated event stream is byte-
identical with capture on or off (the differential battery in
``tests/telemetry/test_zero_perturbation.py`` enforces it).

The instrumented sites are the cross-task interaction points the span
trees alone cannot see:

* :meth:`note_rpc_send` / :meth:`note_rpc_serve` pair a client's
  request with the server-side arrival and rank grant (RPC queueing);
* :meth:`watch_store` taps a :class:`~repro.soma.storage.NamespaceStore`
  so every append and every query becomes a write/read event, giving
  store-mediated dataflow edges via the per-source index;
* :meth:`note_raptor_submit` / :meth:`note_raptor_dispatch` pair a
  function call's submission with its dispatch to a resident worker.

:func:`build_graph` then stitches the hub's span trees and the capture
notes into one :class:`~repro.provenance.graph.ProvGraph` after the run
finished — graph construction is pure post-processing and never touches
the simulation.  Scheduler grants (wait-on-grant / launch edges) need
no note: they are the ``rp.alloc`` records of the session tracer, read
back at build time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .graph import ProvEvent, ProvGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.trace import Tracer
    from ..soma.storage import NamespaceStore, PublishedRecord
    from ..telemetry.spans import Span, SpanContext, Telemetry

__all__ = [
    "ProvenanceCapture",
    "build_graph",
]

class ProvenanceCapture:
    """Host-memory event notebook attached to one telemetry hub.

    Context attribution reuses the hub's ambient machinery: a note taken
    while a span is active is assigned to that span's program order, so
    cross-task edges land between the right per-task trees.  ``close()``
    freezes the notebook — post-run analysis reads (collectors walking
    the stores) no longer append, keeping goldens independent of how
    much offline analysis ran before the graph was built.
    """

    __slots__ = (
        "telemetry",
        "closed",
        "rpc_sends",
        "rpc_serves",
        "store_writes",
        "store_reads",
        "raptor_submits",
        "raptor_dispatches",
        "_nstores",
    )

    def __init__(self, telemetry: "Telemetry") -> None:
        self.telemetry = telemetry
        self.closed = False
        #: (request uid, method, client name, t, attempt span id).
        self.rpc_sends: list[tuple[str, str, str, float, int | None]] = []
        #: (request uid, server name, arrival t, grant t, serve span id).
        self.rpc_serves: list[tuple[str, str, float, float, int | None]] = []
        #: (store id, store name, record t, source, nbytes, span id).
        self.store_writes: list[
            tuple[int, str, float, str, float, int | None]
        ] = []
        #: (store id, store name, op, source filter, t, span id,
        #:  matched write key, record count).
        self.store_reads: list[
            tuple[int, str, str, str | None, float, int | None, tuple | None, int]
        ] = []
        #: (call uid, t, submitting span id).
        self.raptor_submits: list[tuple[Any, float, int | None]] = []
        #: (call uid, worker uid, t).
        self.raptor_dispatches: list[tuple[Any, int, float]] = []
        self._nstores = 0

    # -- context helpers ----------------------------------------------

    def _now(self) -> float:
        return self.telemetry.env.now

    def _ctx_id(self) -> int | None:
        ctx = self.telemetry.current()
        return ctx.span_id if ctx is not None else None

    def close(self) -> None:
        self.closed = True

    def counters(self) -> dict[str, int]:
        """Note counts (host-side bookkeeping, never sim state)."""
        return {
            "rpc_sends": len(self.rpc_sends),
            "rpc_serves": len(self.rpc_serves),
            "store_writes": len(self.store_writes),
            "store_reads": len(self.store_reads),
            "raptor_submits": len(self.raptor_submits),
            "raptor_dispatches": len(self.raptor_dispatches),
        }

    # -- RPC pairing ---------------------------------------------------

    def note_rpc_send(
        self, uid: str, method: str, client: str, t: float, span: "Span | None"
    ) -> None:
        if self.closed:
            return
        span_id = span.span_id if span is not None else None
        self.rpc_sends.append((uid, method, client, t, span_id))

    def note_rpc_serve(
        self, uid: str, server: str, arrival: float, granted: float
    ) -> None:
        if self.closed:
            return
        self.rpc_serves.append((uid, server, arrival, granted, self._ctx_id()))

    # -- store dataflow ------------------------------------------------

    def watch_store(self, store: "NamespaceStore", name: str | None = None) -> None:
        """Install write/read taps on a namespace store.

        ``name`` disambiguates sharded deployments where many stores
        share one namespace (``s01.hardware`` vs ``s02.hardware``); the
        assigned store id keys write/read matching so records from
        different instances never cross-match.
        """
        sid = self._nstores
        self._nstores += 1
        label = name if name is not None else store.namespace

        def write_tap(record: "PublishedRecord") -> None:
            self._note_store_write(sid, label, record)

        def read_tap(
            op: str, source: str | None, records: "list[PublishedRecord]"
        ) -> None:
            self._note_store_read(sid, label, op, source, records)

        store.write_tap = write_tap
        store.read_tap = read_tap

    def _note_store_write(
        self, sid: int, name: str, record: "PublishedRecord"
    ) -> None:
        if self.closed:
            return
        self.store_writes.append(
            (sid, name, record.time, record.source, record.nbytes, self._ctx_id())
        )

    def _note_store_read(
        self,
        sid: int,
        name: str,
        op: str,
        source: str | None,
        records: "list[PublishedRecord]",
    ) -> None:
        if self.closed:
            return
        matched = None
        if records:
            last = records[-1]
            matched = (sid, last.time, last.source)
        self.store_reads.append(
            (sid, name, op, source, self._now(), self._ctx_id(), matched, len(records))
        )

    # -- raptor -------------------------------------------------------

    def note_raptor_submit(
        self, uid: Any, t: float, ctx: "SpanContext | None"
    ) -> None:
        if self.closed:
            return
        self.raptor_submits.append((uid, t, ctx.span_id if ctx is not None else None))

    def note_raptor_dispatch(self, uid: Any, worker_uid: int, t: float) -> None:
        if self.closed:
            return
        self.raptor_dispatches.append((uid, worker_uid, t))


#: Edge kinds that get fault-window annotations when they overlap one.
_FAULT_ANNOTATED_KINDS = frozenset(
    (
        "span",
        "program",
        "rpc.wire",
        "rpc.queue",
        "wait-on-grant",
        "launch",
        "raptor.queue",
        "raptor.dispatch",
        "wait-on-store",
    )
)


def _grants(tracer: "Tracer | None") -> list[tuple[str, float, list[str]]]:
    """(task uid, t, placed nodes) per grant, in scheduling order.

    The scheduler writes one ``rp.alloc`` record per allocated node, all
    at the grant's instant, so consecutive records sharing (uid, time)
    make up one grant.
    """
    grants: list[tuple[str, float, list[str]]] = []
    if tracer is None:
        return grants
    for rec in tracer.select(category="rp.alloc"):
        if grants and grants[-1][:2] == (rec.name, rec.time):
            grants[-1][2].append(rec.data["node"])
        else:
            grants.append((rec.name, rec.time, [rec.data["node"]]))
    return grants


def build_graph(
    result: Any = None,
    *,
    hub: "Telemetry | None" = None,
    capture: ProvenanceCapture | None = None,
    plan: Any = None,
    close: bool = True,
) -> ProvGraph:
    """Stitch one finished run into a :class:`ProvGraph`.

    ``result`` is a :class:`~repro.experiments.harness.WorkflowResult`;
    ``hub``/``capture``/``plan`` override its telemetry hub, capture
    notebook, and fault plan (a bare hub with no capture still yields
    the span-skeleton graph).  ``close=True`` freezes the capture so
    later offline store reads stop appending notes.  With a capture,
    scheduler grants come from the ``rp.alloc`` records of
    ``hub.tracer``, so the tracer must be recording.
    """
    if hub is None:
        if result is None:
            raise ValueError("build_graph needs a result or an explicit hub")
        hub = result.session.telemetry
    if not hub.enabled:
        raise ValueError("provenance needs an enabled telemetry hub")
    if capture is None:
        capture = hub.provenance
    if capture is not None and hub.tracer is not None and not hub.tracer.enabled:
        raise ValueError("provenance needs an enabled tracer (trace=True)")
    if plan is None and result is not None and result.injector is not None:
        plan = result.injector.plan
    finished = float(result.finished_at if result is not None else hub.env.now)

    g = ProvGraph()
    event, edge, times = g.append_event, g.append_edge, g.times
    root = event("run.start", 0.0, "run", "", "run")
    end = event("run.end", finished, "run", "", "run")
    g.root, g.end = ProvEvent(g, root), ProvEvent(g, end)

    # 1. Span interval events: a span's span.end id is its span.start id + 1.
    starts: dict[int, int] = {}
    raptor_calls: dict[str, int] = {}
    sched_spans: dict[str, int] = {}
    exec_spans: dict[str, int] = {}
    for span in hub.spans:
        label = f"{span.component}:{span.name}"
        ref = str(span.span_id)
        uid = span.attributes.get("uid")
        s = event("span.start", span.start, label, ref, span.component)
        if span.end is None:
            event("span.end", finished, label, ref, span.component, {"open": True})
        else:
            event("span.end", span.end, label, ref, span.component)
        edge(s, s + 1, "span")
        starts[span.span_id] = s
        pair = (ProvEvent(g, s), ProvEvent(g, s + 1))
        g.span_events[span.span_id] = pair
        if isinstance(uid, str):
            if span.name == f"task:{uid}":
                g.task_events[uid] = pair
            elif span.name == "agent.schedule":
                sched_spans[uid] = span.span_id
            elif span.name == "agent.execute":
                exec_spans[uid] = span.span_id
        if span.name.startswith("raptor.call:"):
            raptor_calls[span.name.split(":", 1)[1]] = span.span_id

    # 2. Program-order anchors per container (a span, or the run root).
    # Each anchor is (t, rank, event id): child span starts and capture
    # events assigned to the container, sorted by time with a
    # deterministic tie-break, then chained sequentially.
    anchors: dict[int | None, list[tuple[float, int, int]]] = {}

    def anchor(container: int | None, eid: int, t: float, rank: int) -> None:
        if container is not None and container not in starts:
            container = None
        anchors.setdefault(container, []).append((t, rank, eid))

    for span in hub.spans:
        anchor(span.parent_id, starts[span.span_id], span.start, 0)

    # 3. Capture events.
    if capture is not None:
        sends_by_uid: dict[str, int] = {}
        for uid, method, client, t, span_id in capture.rpc_sends:
            ev = event("rpc.send", t, f"rpc.send:{method}", uid, "rpc", {"client": client})
            sends_by_uid[uid] = ev
            anchor(span_id, ev, t, 1)
        for uid, server, arrival, granted, serve_id in capture.rpc_serves:
            grant_ev = event(
                "rpc.grant", granted, f"rpc.grant:{server}", uid, "rpc",
                {"queue_time": granted - arrival},
            )
            serve = starts.get(serve_id) if serve_id is not None else None
            if serve is not None:
                edge(serve, grant_ev, "rpc.queue")
                edge(grant_ev, serve + 1, "program")
                send_ev = sends_by_uid.get(uid)
                if send_ev is not None and times[send_ev] <= times[serve]:
                    edge(send_ev, serve, "rpc.wire")
            else:  # pragma: no cover - defensive (serve span always set)
                edge(root, grant_ev, "run")
        writes_by_key: dict[tuple, int] = {}
        for sid, name, t, source, nbytes, span_id in capture.store_writes:
            ev = event(
                "store.write", t, f"store.write:{name}", f"{name}/{source}",
                "soma-service", {"nbytes": nbytes},
            )
            writes_by_key[(sid, t, source)] = ev
            anchor(span_id, ev, t, 1)
        for sid, name, op, source, t, span_id, matched, count in capture.store_reads:
            ev = event(
                "store.read", t, f"store.read:{name}", f"{name}/{source or '*'}",
                "soma-service", {"op": op, "records": count},
            )
            anchor(span_id, ev, t, 1)
            write_ev = writes_by_key.get(matched) if matched is not None else None
            if write_ev is not None and times[write_ev] <= t:
                edge(write_ev, ev, "wait-on-store")
        for uid, t, nodes in _grants(hub.tracer):
            ev = event(
                "sched.grant", t, f"grant:{uid}", uid, "rp-agent",
                {"nodes": ",".join(nodes)},
            )
            sched = starts.get(sched_spans.get(uid))
            if sched is not None and times[sched] <= t:
                edge(sched, ev, "wait-on-grant")
                if t <= times[sched + 1]:
                    edge(ev, sched + 1, "program")
            else:
                edge(root, ev, "run")
            launched = starts.get(exec_spans.get(uid))
            if launched is not None and t <= times[launched]:
                edge(ev, launched, "launch")
        submits_by_uid: dict[Any, int] = {}
        for uid, t, span_id in capture.raptor_submits:
            ev = event("raptor.submit", t, f"raptor.submit:{uid}", str(uid), "raptor")
            submits_by_uid[uid] = ev
            anchor(span_id, ev, t, 1)
        for uid, worker_uid, t in capture.raptor_dispatches:
            ev = event(
                "raptor.dispatch", t, f"raptor.dispatch:{uid}", str(uid), "raptor",
                {"worker": worker_uid},
            )
            submit_ev = submits_by_uid.get(uid)
            if submit_ev is not None and times[submit_ev] <= t:
                edge(submit_ev, ev, "raptor.queue")
            else:
                edge(root, ev, "run")
            call = starts.get(raptor_calls.get(str(uid)))
            if call is not None and t <= times[call]:
                edge(ev, call, "raptor.dispatch")

    # 4. Chain each container's anchors in program order.  A container's
    # closing edge is skipped when the last anchor outlives it (e.g. a
    # duplicate RPC served after the originating attempt failed).
    for container, entries in anchors.items():
        entries.sort()
        if container is None:
            prev, close_ev, closing = root, end, "run"
        else:
            prev = starts[container]
            close_ev, closing = prev + 1, "program"
        for _t, _rank, eid in entries:
            edge(prev, eid, "program")
            prev = eid
        if times[prev] <= times[close_ev]:
            edge(prev, close_ev, closing)

    # 5. Join edges: child completion constrains parent completion when
    # the child actually finished first; root spans join the run end.
    for span in hub.spans:
        child_end = starts[span.span_id] + 1
        if span.parent_id is not None and span.parent_id in starts:
            parent_end = starts[span.parent_id] + 1
            if times[child_end] <= times[parent_end]:
                edge(child_end, parent_end, "join")
        elif span.parent_id is None:
            edge(child_end, end, "run")

    # 6. Fault windows from the plan, annotated onto overlapping edges.
    windows: list[tuple[str, float, float]] = []
    if plan is not None:
        for fe in plan.timeline():
            if fe.time > finished:
                continue
            t0 = fe.time
            t1 = finished if fe.duration is None else min(finished, t0 + fe.duration)
            label = f"fault:{fe.kind}"
            fs = event("fault.start", t0, label, fe.kind, "faults", {"seq": fe.seq})
            fend = event("fault.end", t1, label, fe.kind, "faults", {"seq": fe.seq})
            edge(root, fs, "run")
            edge(fs, fend, "fault.window")
            edge(fend, end, "run")
            windows.append((fe.kind, t0, t1))
    if windows:
        for index, e in enumerate(g.edges):
            if e.kind not in _FAULT_ANNOTATED_KINDS or e.duration <= 0:
                continue
            overlapping = [
                f"{kind}@[{t0:g},{t1:g})"
                for kind, t0, t1 in windows
                if t0 < e.t_dst and t1 > e.t_src
            ]
            if overlapping:
                g.annotate_edge(index, faults=overlapping)

    if close and capture is not None:
        capture.close()
    return g
