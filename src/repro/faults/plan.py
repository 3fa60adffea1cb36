"""Declarative fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultEvent` entries — "at
t=120 crash node cn0002", "from t=300 for 60 s drop 30 % of RPC
messages" — that a :class:`~repro.faults.injector.FaultInjector`
applies against a running session.  Plans are plain data: they can be
built once and replayed against any seed, and two runs with the same
(seed, plan) pair produce bit-identical traces.

Fault classes
-------------
==================  =============================================  ========
kind                effect                                         windowed
==================  =============================================  ========
``node_crash``      node fails; resident ranks die                 no
``node_slowdown``   node runs at ``factor`` of nominal speed       yes
``partition``       traffic between two racks blocked              yes
``rpc_drop``        fraction of RPC messages lost in transit       yes
``rpc_delay``       fraction of RPC messages delayed               yes
``rpc_duplicate``   fraction of RPC requests delivered twice       yes
``service_outage``  SOMA namespace servers shut down               yes
``profile_outage``  RP profile store rejects reads/writes          yes
``shard_outage``    one shard instance's servers shut down         yes
``tenant_flood``    synthetic tenant floods a shard's ingest       yes
==================  =============================================  ========

Windowed faults with a ``duration`` are automatically restored when the
window closes (slowdown reset, partition healed, probabilities zeroed,
servers restarted, store re-enabled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "NODE_CRASH",
    "NODE_SLOWDOWN",
    "PARTITION",
    "RPC_DROP",
    "RPC_DELAY",
    "RPC_DUPLICATE",
    "SERVICE_OUTAGE",
    "PROFILE_OUTAGE",
    "SHARD_OUTAGE",
    "TENANT_FLOOD",
    "FAULT_KINDS",
    "WINDOWED_KINDS",
]

NODE_CRASH = "node_crash"
NODE_SLOWDOWN = "node_slowdown"
PARTITION = "partition"
RPC_DROP = "rpc_drop"
RPC_DELAY = "rpc_delay"
RPC_DUPLICATE = "rpc_duplicate"
SERVICE_OUTAGE = "service_outage"
PROFILE_OUTAGE = "profile_outage"
SHARD_OUTAGE = "shard_outage"
TENANT_FLOOD = "tenant_flood"

FAULT_KINDS: tuple[str, ...] = (
    NODE_CRASH,
    NODE_SLOWDOWN,
    PARTITION,
    RPC_DROP,
    RPC_DELAY,
    RPC_DUPLICATE,
    SERVICE_OUTAGE,
    PROFILE_OUTAGE,
    SHARD_OUTAGE,
    TENANT_FLOOD,
)

#: Kinds that can carry a duration and are restored at window close.
WINDOWED_KINDS: frozenset[str] = frozenset(FAULT_KINDS) - {NODE_CRASH}


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault (see the table in the module docstring)."""

    time: float
    kind: str
    #: Insertion index; orders simultaneous events deterministically.
    seq: int = 0
    #: Window length for restorable faults; None = until end of run.
    duration: float | None = None
    #: Target node (index or name) for node faults.
    node: int | str | None = None
    #: Rack pair for partitions.
    racks: tuple[int, int] | None = None
    #: Speed factor for slowdowns (< 1 slows the node down).
    factor: float = 1.0
    #: Per-message probability for rpc_* faults.
    probability: float = 0.0
    #: Extra latency (rpc_delay) or client stall before a dropped
    #: message is declared lost (rpc_drop; 0 keeps the gate's default).
    delay: float = 0.0
    #: Namespaces a SOMA outage or flood targets, on every instance
    #: or only on ``shard``; None = all of them.
    namespaces: tuple[str, ...] | None = None
    #: Target shard instance (e.g. "s01") for shard_outage / the shard
    #: a tenant_flood aims its publishes at.
    shard: str | None = None
    #: Synthetic tenant name used by tenant_flood publishes.
    tenant: str | None = None
    #: Flood intensity, publishes per second per namespace.
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        # Negated comparisons, so that NaN is rejected too.
        if not self.time >= 0:
            raise ValueError(f"fault time must be non-negative, got {self.time}")
        if self.duration is not None and not self.duration > 0:
            raise ValueError("duration must be positive (or None)")
        if self.duration is not None and self.kind not in WINDOWED_KINDS:
            raise ValueError(f"{self.kind} cannot carry a duration")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if not self.factor > 0:
            raise ValueError("factor must be positive")
        if not self.delay >= 0:
            raise ValueError("delay must be non-negative")
        if self.kind == NODE_CRASH and self.node is None:
            raise ValueError("node_crash needs a target node")
        if self.kind == NODE_SLOWDOWN and self.node is None:
            raise ValueError("node_slowdown needs a target node")
        if self.kind == PARTITION:
            if self.racks is None or len(self.racks) != 2:
                raise ValueError("partition needs a (rack_a, rack_b) pair")
            if self.racks[0] == self.racks[1]:
                raise ValueError("partition racks must differ")
        if self.kind == SHARD_OUTAGE and self.shard is None:
            raise ValueError("shard_outage needs a target shard instance")
        if self.kind == TENANT_FLOOD:
            if self.shard is None:
                raise ValueError("tenant_flood needs a target shard instance")
            if self.tenant is None:
                raise ValueError("tenant_flood needs a tenant name")
            if not self.rate > 0:
                raise ValueError("tenant_flood needs a positive rate")
            if self.duration is None or not math.isfinite(self.duration):
                raise ValueError("tenant_flood needs a finite duration")


class FaultPlan:
    """An ordered collection of fault events (chainable builder)."""

    def __init__(self, events: "tuple[FaultEvent, ...] | list[FaultEvent]" = ()) -> None:
        self._events: list[FaultEvent] = list(events)

    # -- builders -----------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultPlan":
        self._events.append(event)
        return self

    def _add(self, **kwargs) -> "FaultPlan":
        return self.add(FaultEvent(seq=len(self._events), **kwargs))

    def node_crash(self, at: float, node: int | str) -> "FaultPlan":
        """Crash ``node`` at time ``at`` (terminal: no restore)."""
        return self._add(time=at, kind=NODE_CRASH, node=node)

    def node_slowdown(
        self,
        at: float,
        node: int | str,
        factor: float,
        duration: float | None = None,
    ) -> "FaultPlan":
        """Run ``node`` at ``factor`` of nominal speed for ``duration``."""
        return self._add(
            time=at, kind=NODE_SLOWDOWN, node=node, factor=factor, duration=duration
        )

    def partition(
        self,
        at: float,
        racks: tuple[int, int],
        duration: float | None = None,
    ) -> "FaultPlan":
        """Sever traffic between two racks, healing after ``duration``."""
        return self._add(
            time=at, kind=PARTITION, racks=tuple(racks), duration=duration
        )

    def rpc_drop(
        self,
        at: float,
        probability: float,
        duration: float | None = None,
        stall: float = 0.0,
    ) -> "FaultPlan":
        """Lose ``probability`` of RPC messages; ``stall`` is the client
        transport timeout charged before declaring a message lost."""
        return self._add(
            time=at,
            kind=RPC_DROP,
            probability=probability,
            duration=duration,
            delay=stall,
        )

    def rpc_delay(
        self,
        at: float,
        probability: float,
        delay: float,
        duration: float | None = None,
    ) -> "FaultPlan":
        """Add ``delay`` seconds to ``probability`` of RPC messages."""
        return self._add(
            time=at,
            kind=RPC_DELAY,
            probability=probability,
            delay=delay,
            duration=duration,
        )

    def rpc_duplicate(
        self,
        at: float,
        probability: float,
        duration: float | None = None,
    ) -> "FaultPlan":
        """Deliver ``probability`` of RPC requests twice."""
        return self._add(
            time=at, kind=RPC_DUPLICATE, probability=probability, duration=duration
        )

    def service_outage(
        self,
        at: float,
        duration: float | None = None,
        namespaces: "tuple[str, ...] | None" = None,
    ) -> "FaultPlan":
        """Shut the SOMA namespace servers down, restarting after
        ``duration`` (None leaves them down for the rest of the run).

        ``namespaces`` scopes the outage to those namespaces' servers on
        every instance, sharded or not."""
        return self._add(
            time=at,
            kind=SERVICE_OUTAGE,
            duration=duration,
            namespaces=tuple(namespaces) if namespaces is not None else None,
        )

    def profile_outage(
        self, at: float, duration: float | None = None
    ) -> "FaultPlan":
        """Make the RP profile store reject reads/writes for a window."""
        return self._add(time=at, kind=PROFILE_OUTAGE, duration=duration)

    def shard_outage(
        self,
        at: float,
        shard: str,
        duration: float | None = None,
        namespaces: "tuple[str, ...] | None" = None,
    ) -> "FaultPlan":
        """Shut one shard instance's namespace servers down.

        The facility degradation contract says the blast radius stays
        inside the shard: tenants routed elsewhere keep publishing,
        tenants on ``shard`` degrade (drop + gap) and recover when the
        window closes.
        """
        return self._add(
            time=at,
            kind=SHARD_OUTAGE,
            shard=shard,
            duration=duration,
            namespaces=tuple(namespaces) if namespaces is not None else None,
        )

    def tenant_flood(
        self,
        at: float,
        shard: str,
        tenant: str,
        rate: float,
        duration: float,
        namespaces: "tuple[str, ...] | None" = None,
    ) -> "FaultPlan":
        """Flood ``shard`` with ``rate`` publishes/s from a synthetic
        ``tenant`` for ``duration`` seconds (admission-control chaos:
        the flooding tenant should be throttled, co-resident tenants
        should keep their budgets)."""
        return self._add(
            time=at,
            kind=TENANT_FLOOD,
            shard=shard,
            tenant=tenant,
            rate=rate,
            duration=duration,
            namespaces=tuple(namespaces) if namespaces is not None else None,
        )

    # -- access -------------------------------------------------------

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return tuple(self._events)

    def timeline(self) -> list[FaultEvent]:
        """Events in deterministic application order."""
        return sorted(self._events, key=lambda e: (e.time, e.seq))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.timeline())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ", ".join(f"{e.kind}@{e.time:g}" for e in self.timeline())
        return f"<FaultPlan [{kinds}]>"
