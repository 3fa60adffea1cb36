"""Mochi/Margo-style RPC engine on the simulated fabric.

SOMA's service implementation builds on the Mochi microservice
framework, whose RPCs ride RDMA-capable transports (paper Sec 2.2).
The model here preserves what the overhead experiments exercise:

* the request payload crosses the shared :class:`~repro.platform.network.Network`;
* the server has a fixed number of *ranks* (worker processes) — a
  request waits for a free rank, then occupies it for a service time
  proportional to the payload;
* the (small) response crosses the fabric back.

Server-side service time is also charged as CPU work on the node the
server rank lives on, so SOMA service ranks show up in /proc and in
the shared-node contention domain — this is exactly what makes the
"shared" configurations of Figs 10/11 interesting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from ..sim.core import Environment, Event, Interrupt
from ..sim.events import TimeoutExpired, with_timeout
from ..sim.resources import Resource
from ..platform.network import Network
from ..platform.node import Node, NodeFailure
from .protocol import (
    AdmissionRejected,
    RPCError,
    RPCRequest,
    RPCResponse,
    RPCTimeout,
    ServiceUnavailable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..faults.retry import RetryPolicy

__all__ = ["RPCServer", "RPCClient", "RPCRegistry", "ServerStats"]

#: Fallback per-call CPU service time (seconds) for an empty payload.
DEFAULT_BASE_SERVICE_TIME = 2e-4
#: Fallback incremental CPU time per payload byte.
DEFAULT_PER_BYTE_SERVICE_TIME = 2e-9
#: Size of a response envelope in bytes.
RESPONSE_BYTES = 256.0

#: Default accounting-window length for :class:`ServerStats`, seconds.
DEFAULT_STATS_WINDOW = 60.0


class ServerStats:
    """Aggregate + windowed accounting for one RPC server.

    Lifetime counters (``calls``/``bytes``/``busy_time``/``queue_time``)
    answer "how much work did this server do overall"; the *windowed*
    accounting answers "how bad did its worst burst get".  A long run
    dilutes a lifetime mean — ten minutes of saturation disappear into
    hours of idle publishing — so detectors that look for queueing
    bursts read :attr:`peak_window_queue_time` instead: the largest
    per-window mean queue wait over fixed ``window_seconds`` windows.

    Window rolling is pure host-side arithmetic driven by the call
    completions themselves (no kernel events), so arming it never
    perturbs a run.
    """

    __slots__ = (
        "calls",
        "bytes",
        "busy_time",
        "queue_time",
        "errors",
        "rejections",
        "window_seconds",
        "windows_closed",
        "peak_window_queue_time",
        "peak_window_calls",
        "_window_start",
        "_window_calls",
        "_window_queue_time",
    )

    def __init__(self, window_seconds: float = DEFAULT_STATS_WINDOW) -> None:
        self.calls = 0
        self.bytes = 0.0
        self.busy_time = 0.0
        self.queue_time = 0.0
        self.errors = 0
        #: Calls refused by the admission gate before queueing.
        self.rejections = 0
        self.window_seconds = window_seconds
        #: Windows finalized so far (only windows that saw calls).
        self.windows_closed = 0
        #: Worst per-window mean queue wait seen so far.
        self.peak_window_queue_time = 0.0
        #: Calls in the busiest window (by call count).
        self.peak_window_calls = 0
        self._window_start: float | None = None
        self._window_calls = 0
        self._window_queue_time = 0.0

    @property
    def mean_queue_time(self) -> float:
        return self.queue_time / self.calls if self.calls else 0.0

    @property
    def worst_window_queue_time(self) -> float:
        """Peak windowed mean queue wait, including the open window.

        Zero-call-safe: a server that never served a call reports 0.
        """
        current = (
            self._window_queue_time / self._window_calls
            if self._window_calls
            else 0.0
        )
        return max(self.peak_window_queue_time, current)

    def note_call(
        self, now: float, queue_time: float, busy_time: float, nbytes: float
    ) -> None:
        """Fold one served call into lifetime + windowed accounting."""
        self.calls += 1
        self.bytes += nbytes
        self.busy_time += busy_time
        self.queue_time += queue_time
        if self._window_start is None:
            self._window_start = now
        elif now - self._window_start >= self.window_seconds:
            self._close_window()
            # Realign on the fixed grid anchored at the first call, so
            # two identical runs roll windows at identical instants.
            elapsed = now - self._window_start
            self._window_start += self.window_seconds * (
                elapsed // self.window_seconds
            )
        self._window_calls += 1
        self._window_queue_time += queue_time

    def _close_window(self) -> None:
        if not self._window_calls:
            return
        mean = self._window_queue_time / self._window_calls
        self.peak_window_queue_time = max(self.peak_window_queue_time, mean)
        self.peak_window_calls = max(self.peak_window_calls, self._window_calls)
        self.windows_closed += 1
        self._window_calls = 0
        self._window_queue_time = 0.0

    # -- snapshot/interval accounting --------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of the lifetime counters (for deltas)."""
        return {
            "calls": self.calls,
            "bytes": self.bytes,
            "busy_time": self.busy_time,
            "queue_time": self.queue_time,
            "errors": self.errors,
            "rejections": self.rejections,
        }

    @staticmethod
    def interval(before: dict, after: dict) -> dict:
        """Deltas between two snapshots, with zero-call-safe means."""
        delta = {key: after[key] - before[key] for key in after}
        calls = delta["calls"]
        delta["mean_queue_time"] = (
            delta["queue_time"] / calls if calls else 0.0
        )
        delta["mean_busy_time"] = delta["busy_time"] / calls if calls else 0.0
        return delta


class RPCServer:
    """An addressable RPC endpoint with a pool of worker ranks.

    Parameters
    ----------
    node:
        The compute node hosting the server ranks; service time is
        charged there as CPU work so the ranks contend realistically.
    ranks:
        Number of concurrent worker processes.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        node: Node | None,
        name: str,
        ranks: int = 1,
        base_service_time: float = DEFAULT_BASE_SERVICE_TIME,
        per_byte_service_time: float = DEFAULT_PER_BYTE_SERVICE_TIME,
        component: str = "rpc-server",
        admission: "Callable[[RPCRequest], bool] | None" = None,
    ) -> None:
        if ranks <= 0:
            raise ValueError("server needs at least one rank")
        self.env = env
        self.network = network
        self.node = node
        self.name = name
        #: Telemetry track this server's serve spans appear on.
        self.component = component
        self.ranks = ranks
        self.base_service_time = base_service_time
        self.per_byte_service_time = per_byte_service_time
        self._workers = Resource(env, capacity=ranks)
        self._handlers: dict[str, Callable[[RPCRequest], Any]] = {}
        self.stats = ServerStats()
        self.alive = True
        #: Optional admission gate consulted *before* a request queues
        #: for a rank.  Returning False rejects the call with
        #: :class:`AdmissionRejected` at wire-RTT cost — the request
        #: never holds a worker slot and never charges service time, so
        #: backpressure stays cheap for the server under overload.
        self.admission = admission

    def register(self, method: str, handler: Callable[[RPCRequest], Any]) -> None:
        """Expose ``handler`` under ``method``."""
        self._handlers[method] = handler

    def shutdown(self) -> None:
        """Stop accepting calls (in-flight calls complete)."""
        self.alive = False

    def restart(self) -> None:
        """Come back up after an outage; handlers and state survive.

        Mirrors an RP service-task restart on the same address: the
        registry entry stays valid, so clients holding the old handle
        reconnect transparently on their next retry.
        """
        self.alive = True

    def service_time_for(self, payload_bytes: float) -> float:
        return self.base_service_time + payload_bytes * self.per_byte_service_time

    def _serve(
        self, request: RPCRequest
    ) -> Generator[Event, None, RPCResponse]:
        """Server-side handling: queue for a rank, work, reply."""
        tel = self.env._telemetry
        if tel is None:
            # Telemetry off: no wrapper frame on the hot path.
            return self._serve_inner(request)
        return self._serve_traced(tel, request)

    def _serve_traced(
        self, tel: Any, request: RPCRequest
    ) -> Generator[Event, None, RPCResponse]:
        # The request envelope carries the caller's context across the
        # simulated wire, so server work joins the caller's trace even
        # though no process ancestry links them.
        span = tel.start_span(
            f"rpc.serve:{request.method}",
            component=self.component,
            parent=request.ctx,
            activate=True,
            server=self.name,
        )
        try:
            response = yield from self._serve_inner(request)
            return response
        finally:
            tel.end_span(span)

    def _serve_inner(
        self, request: RPCRequest
    ) -> Generator[Event, None, RPCResponse]:
        if not self.alive:
            # Arrived after a shutdown (in-flight during an outage).
            self.stats.errors += 1
            raise ServiceUnavailable(f"server {self.name} is shut down")
        if self.admission is not None and not self.admission(request):
            self.stats.rejections += 1
            raise AdmissionRejected(
                f"server {self.name} rejected {request.method!r} "
                f"from tenant {request.tenant!r} (over budget)"
            )
        arrival = self.env.now
        tel = self.env._telemetry
        prov = tel.provenance if tel is not None else None
        with self._workers.request() as slot:
            yield slot
            queue_time = self.env.now - arrival
            if prov is not None:
                prov.note_rpc_serve(
                    request.uid, self.name, arrival, self.env.now
                )
            handler = self._handlers.get(request.method)
            if handler is None:
                self.stats.errors += 1
                return RPCResponse(
                    request_uid=request.uid,
                    ok=False,
                    body=RPCError(f"no such method {request.method!r}"),
                    served_by=self.name,
                    queue_time=queue_time,
                )
            service_time = self.service_time_for(request.payload_bytes)
            start = self.env.now
            try:
                if self.node is not None and service_time > 0:
                    act = self.node.run_compute(
                        cores=1,
                        work=service_time * self.node.spec.core_speed,
                        mem_intensity=0.2,
                    )
                    yield act.done
                elif service_time > 0:
                    yield self.env.timeout(service_time)
            except NodeFailure as exc:
                # The hosting node died mid-service: to the caller this
                # is an outage, not a handler bug.
                self.stats.errors += 1
                raise ServiceUnavailable(
                    f"server {self.name} lost its node: {exc}"
                ) from exc
            try:
                body = handler(request)
                ok = True
            except Interrupt:
                # No yield inside this try, so the kernel cannot deliver
                # cancellation here — but an Interrupt raised through a
                # nested frame is still cancellation and must propagate
                # rather than become an error response.
                raise
            except Exception as exc:  # handler bug → error response
                body = exc
                ok = False
                self.stats.errors += 1
            elapsed = self.env.now - start
            self.stats.note_call(
                self.env.now, queue_time, elapsed, request.payload_bytes
            )
            return RPCResponse(
                request_uid=request.uid,
                ok=ok,
                body=body,
                served_by=self.name,
                service_time=elapsed,
                queue_time=queue_time,
            )


class RPCClient:
    """Client stub: translates API calls into simulated RPCs.

    Mirrors the paper's client stub, which "runs within the address
    space of the component being instrumented and requires no
    additional computational resources"; the optional ``node`` lets the
    *standalone-binary* variant charge its serialization CPU cost.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        name: str,
        node: Node | None = None,
        serialize_cost_per_byte: float = 1e-9,
        rng: "np.random.Generator | None" = None,
        component: str = "rpc-client",
        tenant: str = "default",
    ) -> None:
        self.env = env
        self.network = network
        self.name = name
        self.node = node
        #: Tenant stamped on every outgoing request; server-side
        #: admission control budgets per tenant.
        self.tenant = tenant
        #: Telemetry track this client's attempt spans appear on.
        self.component = component
        self.serialize_cost_per_byte = serialize_cost_per_byte
        #: Source of deterministic backoff jitter for retrying calls.
        self.rng = rng
        self.calls = 0
        self.failures = 0
        self.retries = 0
        self.timeouts = 0
        self.total_rtt = 0.0

    def call(
        self,
        server: RPCServer,
        method: str,
        body: Any = None,
        payload_bytes: float = 1024.0,
        timeout: float | None = None,
        retry: "RetryPolicy | None" = None,
    ) -> Generator[Event, None, RPCResponse]:
        """Synchronous RPC (process generator): returns the response.

        ``timeout`` bounds a single attempt (:class:`RPCTimeout` on
        expiry).  ``retry`` wraps the call in a
        :class:`~repro.faults.RetryPolicy`: transient failures
        (timeouts, unavailable service) are retried with deterministic
        exponential backoff; permanent errors surface immediately.
        """
        if retry is not None:

            def attempt() -> Generator[Event, None, RPCResponse]:
                return self._call_once(server, method, body, payload_bytes)

            def note_retry(attempt_no: int, delay: float, exc: BaseException) -> None:
                self.retries += 1

            result = yield from retry.execute(
                self.env,
                attempt,
                rng=self.rng,
                on_retry=note_retry,
                name=f"rpc:{method}",
            )
            return result
        if timeout is not None:
            try:
                result = yield from with_timeout(
                    self.env,
                    self._call_once(server, method, body, payload_bytes),
                    timeout,
                    name=f"rpc:{method}",
                )
            except TimeoutExpired as exc:
                self.timeouts += 1
                self.failures += 1
                raise RPCTimeout(str(exc)) from None
            return result
        result = yield from self._call_once(server, method, body, payload_bytes)
        return result

    def _call_once(
        self,
        server: RPCServer,
        method: str,
        body: Any = None,
        payload_bytes: float = 1024.0,
    ) -> Generator[Event, None, RPCResponse]:
        """One bare attempt: serialize, cross the wire, serve, reply."""
        tel = self.env._telemetry
        if tel is None:
            # Telemetry off: hand back the bare attempt generator, no
            # extra delegation frame on the hot path.
            return self._attempt(server, method, body, payload_bytes, None)
        return self._call_traced(tel, server, method, body, payload_bytes)

    def _call_traced(
        self,
        tel: Any,
        server: RPCServer,
        method: str,
        body: Any,
        payload_bytes: float,
    ) -> Generator[Event, None, RPCResponse]:
        # One span per attempt; retried calls show one span each, and
        # the try/finally closes it exactly once even when with_timeout
        # cancels this generator mid-yield.
        span = tel.start_span(
            f"rpc.attempt:{method}",
            component=self.component,
            activate=True,
            server=server.name,
        )
        try:
            response = yield from self._attempt(
                server, method, body, payload_bytes, span
            )
            return response
        finally:
            tel.end_span(span)

    def _attempt(
        self,
        server: RPCServer,
        method: str,
        body: Any,
        payload_bytes: float,
        span: Any,
    ) -> Generator[Event, None, RPCResponse]:
        if not server.alive:
            self.failures += 1
            raise ServiceUnavailable(
                f"server {server.name} is not accepting calls"
            )
        start = self.env.now
        request = RPCRequest(
            method=method,
            payload_bytes=payload_bytes,
            body=body,
            client=self.name,
            sent_at=start,
            uid=self.env.new_id("rpc"),
            tenant=self.tenant,
        )
        if span is not None:
            request.ctx = span.context
        tel = self.env._telemetry
        if tel is not None and tel.provenance is not None:
            tel.provenance.note_rpc_send(
                request.uid, method, self.name, start, span
            )
        # Client-side serialization cost (charged on our node if any).
        ser = payload_bytes * self.serialize_cost_per_byte
        if ser > 0 and self.node is not None:
            act = self.node.inject_jitter(cpu_seconds=ser)
            yield act.done
        elif ser > 0:
            yield self.env.timeout(ser)
        # Message-level fault gate (drop/delay/duplicate), if injected.
        faults = self.network.message_faults
        decision = faults.draw(method) if faults is not None else None
        if decision is not None and decision.delay > 0:
            yield self.env.timeout(decision.delay)
        # Request over the wire.
        yield from self.network.transfer(
            payload_bytes,
            messages=1,
            tag=f"rpc:{method}",
            src=self.node,
            dst=server.node,
        )
        if decision is not None and decision.action == "drop_request":
            # The request is lost in transit; the caller only learns
            # after its transport timeout expires.
            self.failures += 1
            self.timeouts += 1
            yield self.env.timeout(faults.drop_stall)
            raise RPCTimeout(f"rpc:{method}: request dropped in transit")
        if decision is not None and decision.action == "duplicate":
            duplicate = RPCRequest(
                method=method,
                payload_bytes=payload_bytes,
                body=body,
                client=self.name,
                sent_at=start,
                uid=self.env.new_id("rpc"),
                ctx=request.ctx,
                tenant=self.tenant,
            )
            self.env.process(
                _swallow(server._serve(duplicate)),
                name=f"rpc-dup-{duplicate.uid}",
            )
        # Server-side processing.
        response = yield from server._serve(request)
        # Response back over the wire.
        yield from self.network.transfer(
            RESPONSE_BYTES,
            messages=1,
            tag=f"rpc:{method}:resp",
            src=server.node,
            dst=self.node,
        )
        if decision is not None and decision.action == "drop_response":
            self.failures += 1
            self.timeouts += 1
            yield self.env.timeout(faults.drop_stall)
            raise RPCTimeout(f"rpc:{method}: response dropped in transit")
        self.calls += 1
        rtt = self.env.now - start
        self.total_rtt += rtt
        if not response.ok and isinstance(response.body, RPCError):
            self.failures += 1
            raise response.body
        return response

    @property
    def mean_rtt(self) -> float:
        return self.total_rtt / self.calls if self.calls else 0.0


def _swallow(generator: Generator[Event, Any, Any]) -> Generator[Event, Any, None]:
    """Run a fire-and-forget generator, absorbing its failures.

    Duplicate deliveries must not crash the run when the server dies
    mid-service; their side effects (stored records, charged CPU) are
    the point, not their return value.  The kernel's :class:`Interrupt`
    subclasses ``Exception``, so cancellation must be re-raised
    explicitly — swallowing it here would detach fault-injection
    shutdown from every duplicate-delivery process.
    """
    try:
        yield from generator
    except Interrupt:
        raise
    except Exception:
        pass


class RPCRegistry:
    """Service discovery: how RP makes service addresses known.

    The paper notes service tasks must publish their RPC addresses
    before clients can connect (Sec 2.3.1); this registry is that
    mechanism.  ``lookup`` blocks until the named server registers.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._servers: dict[str, RPCServer] = {}
        self._waiters: dict[str, list[Event]] = {}

    def publish(self, server: RPCServer) -> None:
        self._servers[server.name] = server
        for event in self._waiters.pop(server.name, []):
            if not event.triggered:
                event.succeed(server)

    def lookup(self, name: str) -> Generator[Event, None, RPCServer]:
        """Wait until ``name`` is registered, then return its server."""
        server = self._servers.get(name)
        if server is not None:
            return server
        event = self.env.event()
        self._waiters.setdefault(name, []).append(event)
        server = yield event
        return server

    def try_lookup(self, name: str) -> RPCServer | None:
        return self._servers.get(name)

    def names(self) -> list[str]:
        return list(self._servers)
