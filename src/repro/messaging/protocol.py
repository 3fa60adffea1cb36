"""RPC envelopes and the errors a call can raise."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "DEFAULT_TENANT",
    "RPCRequest",
    "RPCResponse",
    "RPCError",
    "RPCTimeout",
    "ServiceUnavailable",
    "AdmissionRejected",
]


#: Tenant of a client that acts for no named one: every client of a
#: single-workflow run; the facility names one tenant per pilot.
DEFAULT_TENANT = "default"


@dataclass(slots=True)
class RPCRequest:
    """A remote procedure call in flight."""

    method: str
    payload_bytes: float
    body: Any
    client: str
    #: Minted from the caller's environment (``env.new_id("rpc")``).
    uid: int
    #: Telemetry baggage (a SpanContext) stamped at send time; pure
    #: data, never consulted by the simulation itself.
    ctx: Any = None
    #: Tenant the calling client acts for; admission control keys its
    #: per-tenant token buckets on this.
    tenant: str = DEFAULT_TENANT


@dataclass(slots=True)
class RPCResponse:
    """The reply to one :class:`RPCRequest`."""

    ok: bool
    body: Any
    queue_time: float


class RPCError(Exception):
    """Raised on the client when a call fails (bad method, dead server)."""


class RPCTimeout(RPCError):
    """No response arrived within the call deadline.

    Covers dropped requests/responses, partitions that outlast the
    per-call timeout, and servers too slow to answer.  Transient:
    retry policies treat it as retriable.
    """


class ServiceUnavailable(RPCError):
    """The target service is not accepting calls (down or restarting).

    Transient: the service may come back, so retry policies treat it
    as retriable.  Also used for the RP profile store while its backing
    file system is injected as unavailable.
    """


class AdmissionRejected(RPCError):
    """The server refused the call before queueing it (backpressure).

    Deliberately *not* transient: retrying an over-budget tenant's
    publish immediately would defeat the admission controller, so
    retry policies surface the rejection at once and the client's
    degradation path (drop or summarize the sample, record a gap)
    takes over.  The next monitoring period gets a fresh token draw.
    """
