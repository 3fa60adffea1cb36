"""The SOMA client stub.

"SOMA's functionality is split up into a client stub and a service
library.  The client stub exposes the SOMA monitoring API and is
responsible for translating the API calls into remote procedure calls"
(paper Sec 2.2.1).  The stub either runs inside the instrumented
component's address space (TAU plugin) or as a separate binary on its
own core (hardware / RP monitors) — pass ``node`` to charge that CPU.

Degradation semantics
---------------------
Monitoring must never take the workflow down with it.  When a publish
fails — service outage, dropped message, partition — the client retries
under its :class:`~repro.faults.RetryPolicy` (if one is configured),
then *drops the sample* and records the start of an observability gap.
The first successful publish after a gap emits a ``soma.gap`` trace
record with the gap's extent, and the client folds its own health
counters (drops, retries, gap seconds) into the next published tree
under ``SOMA/health/<client>/`` so the gap is visible in the monitoring
data itself, not only in client-side state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..conduit import Node as ConduitNode
from ..messaging.protocol import AdmissionRejected
from ..messaging.rpc import RPCClient, RPCError, RPCServer
from ..sim.core import Event
from .sharding import HashRing, registry_name, route

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.retry import RetryPolicy
    from ..platform.node import Node
    from ..rp.session import Session

__all__ = ["SomaClient"]


class SomaClient:
    """Connects to one or more SOMA namespace instances."""

    def __init__(
        self,
        session: "Session",
        name: str,
        node: "Node | None" = None,
        retry: "RetryPolicy | None" = None,
        tenant: str = "default",
        ring: HashRing | None = None,
        degrade: str = "drop",
    ) -> None:
        if degrade not in ("drop", "summarize"):
            raise ValueError(f"unknown degrade mode {degrade!r}")
        self.session = session
        self.env = session.env
        self.name = name
        self.node = node
        #: Policy applied to every publish/query RPC (None = single shot).
        self.retry = retry
        #: Tenant stamped on every RPC; the facility's admission
        #: controllers budget per tenant.
        self.tenant = tenant
        #: The sharded deployment's ring; None routes to the paper's
        #: one server per namespace.
        self.ring = ring
        #: What to do with a sample the service refuses under
        #: backpressure: "drop" forgets it, "summarize" folds cumulative
        #: counts of the refused data into the next accepted publish.
        self.degrade = degrade
        self._rpc = RPCClient(
            session.env,
            session.cluster.network,
            name=name,
            node=node,
            rng=session.stable_rng(f"rpc:{name}"),
            component="soma-client",
            tenant=tenant,
        )
        self._servers: dict[str, RPCServer] = {}
        self.published = 0
        self.publish_failures = 0
        #: Samples dropped after retries were exhausted.
        self.dropped = 0
        #: Samples the service refused at admission (backpressure).
        self.rejected = 0
        #: Completed observability gaps (drop ... next success).
        self.gaps = 0
        self.gap_seconds = 0.0
        self._gap_since: dict[str, float] = {}
        #: Per-namespace cumulative summary of refused samples
        #: (samples/bytes), published under SOMA/degraded/ in
        #: "summarize" mode.
        self._degraded: dict[str, dict[str, float]] = {}

    # -- connection ---------------------------------------------------------

    def connect(self, namespace: str) -> Generator[Event, None, RPCServer]:
        """Resolve (and wait for) the owning instance's address.

        Sharded deployments route ``(tenant, namespace)`` through the
        consistent-hash ring to one instance; unsharded ones keep the
        paper's one-server-per-namespace names.
        """
        server = self._servers.get(namespace)
        if server is not None:
            return server
        server = yield from self.session.rpc_registry.lookup(
            registry_name(route(self.ring, self.tenant, namespace))
        )
        self._servers[namespace] = server
        return server

    # -- the monitoring API -----------------------------------------------------

    def publish(
        self, namespace: str, data: ConduitNode
    ) -> Generator[Event, None, bool]:
        """Publish a Conduit tree to a namespace instance (blocking RPC).

        Returns True on success; False if the sample was dropped after
        the retry policy gave up (the client surfaces the failure but
        does not crash or stall its host beyond the policy's deadline).
        """
        server = yield from self.connect(namespace)
        data = self._annotate_health(data)
        # The one size walk of this sample: it is charged on the wire
        # and carried to the store in the request's payload_bytes.
        nbytes = data.nbytes()
        with self.session.telemetry.span(
            f"soma.publish:{namespace}",
            component="soma-client",
            source=self.name,
            nbytes=nbytes,
        ) as span:
            try:
                yield from self._rpc.call(
                    server,
                    "publish",
                    body=data,
                    payload_bytes=nbytes,
                    retry=self.retry,
                )
            except AdmissionRejected:
                # Backpressure, not an outage: the service is up but
                # refuses this tenant's sample.  Degrade immediately —
                # never re-send, never stall the host task.
                self.publish_failures += 1
                self.rejected += 1
                self.dropped += 1
                self._gap_since.setdefault(namespace, self.env.now)
                if self.degrade == "summarize":
                    summary = self._degraded.setdefault(
                        namespace, {"samples": 0, "bytes": 0.0}
                    )
                    summary["samples"] += 1
                    summary["bytes"] += nbytes
                if span is not None:
                    span.attributes["rejected"] = True
                self.session.tracer.record(
                    "soma.publish_rejected",
                    namespace,
                    source=self.name,
                    tenant=self.tenant,
                )
                return False
            except RPCError as exc:
                self.publish_failures += 1
                self.dropped += 1
                self._gap_since.setdefault(namespace, self.env.now)
                if span is not None:
                    span.attributes["dropped"] = True
                self.session.tracer.record(
                    "soma.publish_failed",
                    namespace,
                    source=self.name,
                    error=type(exc).__name__,
                )
                return False
            self._close_gap(namespace)
            self.published += 1
        return True

    def query(
        self, namespace: str, kind: str = "records", **params: Any
    ) -> Generator[Event, None, Any]:
        """Online query against a namespace instance."""
        server = yield from self.connect(namespace)
        body = {"kind": kind, **params}
        with self.session.telemetry.span(
            f"soma.query:{namespace}",
            component="soma-client",
            source=self.name,
            kind=kind,
        ):
            response = yield from self._rpc.call(
                server, "query", body=body, payload_bytes=256.0, retry=self.retry
            )
        return response.body

    # -- degradation bookkeeping ------------------------------------------------

    def _close_gap(self, namespace: str) -> None:
        started = self._gap_since.pop(namespace, None)
        if started is None:
            return
        extent = self.env.now - started
        self.gaps += 1
        self.gap_seconds += extent
        self.session.tracer.record(
            "soma.gap",
            namespace,
            source=self.name,
            started=started,
            seconds=extent,
        )

    def _annotate_health(self, data: ConduitNode) -> ConduitNode:
        """The tree to publish: ``data`` with client health folded in.

        Only once something has gone wrong: a healthy client publishes
        byte-identical payloads with or without fault injection wired
        in, which is what the determinism regression pins down.  The
        annotation goes on a copy, because the caller's tree may
        already be stored and published trees are never mutated.
        """
        if self.dropped == 0 and self._rpc.retries == 0:
            return data
        data = data.copy()
        prefix = f"SOMA/health/{self.name}"
        data[f"{prefix}/dropped"] = self.dropped
        data[f"{prefix}/retries"] = self._rpc.retries
        data[f"{prefix}/gap_seconds"] = self.gap_seconds
        if self.degrade == "summarize" and self._degraded:
            # Cumulative summaries of refused samples, so the gap's
            # *content* (how much data was shed, not just for how long)
            # survives in the monitoring record itself.
            for namespace in sorted(self._degraded):
                summary = self._degraded[namespace]
                base = f"SOMA/degraded/{self.name}/{namespace}"
                data[f"{base}/samples"] = int(summary["samples"])
                data[f"{base}/bytes"] = summary["bytes"]
        return data

    @property
    def retries(self) -> int:
        """Publish/query attempts beyond the first, across all calls."""
        return self._rpc.retries

    @property
    def open_gaps(self) -> dict[str, float]:
        """Namespace → gap start time for gaps still open."""
        return dict(self._gap_since)
