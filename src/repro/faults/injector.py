"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live session.

The injector is a sim process that walks the plan's timeline and pokes
the fault hooks exposed by the lower layers:

* node crash / slowdown → :meth:`Node.fail` / :meth:`Node.set_speed_factor`;
* rack partition → :meth:`Network.sever` / :meth:`Network.heal`;
* message drop/delay/duplicate → a :class:`MessageFaults` gate attached
  to ``network.message_faults`` and consulted by every RPC client;
* SOMA service or shard outage → ``shutdown()``/``restart()`` on the
  SOMA servers found through the session's RPC registry;
* profile-store outage → ``session.profiles.set_available(...)``.

All randomness (which messages a probabilistic fault hits, retry
jitter downstream) flows from ``session.stable_rng("faults:<name>")``,
so a (seed, plan) pair replays bit-identically — and a run with no
probabilistic faults active draws nothing at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..sim.core import Event
from ..soma.sharding import REGISTRY_PREFIX, registry_name, server_keys, split_key
from .plan import (
    FaultEvent,
    FaultPlan,
    NODE_CRASH,
    NODE_SLOWDOWN,
    PARTITION,
    PROFILE_OUTAGE,
    RPC_DELAY,
    RPC_DROP,
    RPC_DUPLICATE,
    SERVICE_OUTAGE,
    SHARD_OUTAGE,
    TENANT_FLOOD,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..platform.node import Node
    from ..rp.session import Session

__all__ = ["FaultInjector", "MessageFaults", "MessageFaultDecision"]

#: Simulated seconds a client waits on a dropped message before giving
#: up, absent an explicit per-plan stall (models a transport timeout).
DEFAULT_DROP_STALL = 30.0


class MessageFaultDecision:
    """The fate the gate assigned to one message."""

    __slots__ = ("action", "delay")

    def __init__(self, action: str | None = None, delay: float = 0.0) -> None:
        #: "drop_request", "drop_response", "duplicate", or None.
        self.action = action
        #: Extra in-flight latency, seconds.
        self.delay = delay


class MessageFaults:
    """Per-message fault gate consulted by RPC clients.

    Attached to ``network.message_faults`` (duck-typed — the platform
    layer never imports this module).  While no probability is set the
    gate is inert and :meth:`draw` returns ``None`` without touching
    the RNG, so fault-free runs keep their exact event streams.
    """

    def __init__(self, rng: "np.random.Generator") -> None:
        self.rng = rng
        self.drop_probability = 0.0
        self.duplicate_probability = 0.0
        self.delay_probability = 0.0
        self.delay_seconds = 0.0
        self.drop_stall = DEFAULT_DROP_STALL
        self.decided = 0
        self.dropped_requests = 0
        self.dropped_responses = 0
        self.duplicated = 0
        self.delayed = 0

    @property
    def active(self) -> bool:
        return (
            self.drop_probability > 0
            or self.duplicate_probability > 0
            or self.delay_probability > 0
        )

    def reset(self) -> None:
        """Deactivate the gate (window closed); counters survive."""
        self.drop_probability = 0.0
        self.duplicate_probability = 0.0
        self.delay_probability = 0.0
        self.delay_seconds = 0.0

    def draw(self, method: str) -> MessageFaultDecision | None:
        """Decide the fate of one outbound call, or None when inert.

        Draw order is fixed (drop, duplicate, delay) so the RNG stream
        is reproducible; at most one *action* applies per message, with
        delay composable on top of a duplicate.
        """
        if not self.active:
            return None
        self.decided += 1
        decision = MessageFaultDecision()
        if self.drop_probability > 0 and float(self.rng.random()) < self.drop_probability:
            # Requests and responses are equally exposed on the wire.
            if float(self.rng.random()) < 0.5:
                decision.action = "drop_request"
                self.dropped_requests += 1
            else:
                decision.action = "drop_response"
                self.dropped_responses += 1
            return decision
        if (
            self.duplicate_probability > 0
            and float(self.rng.random()) < self.duplicate_probability
        ):
            decision.action = "duplicate"
            self.duplicated += 1
        if (
            self.delay_probability > 0
            and float(self.rng.random()) < self.delay_probability
        ):
            decision.delay = self.delay_seconds
            self.delayed += 1
        if decision.action is None and decision.delay == 0.0:
            return None
        return decision


class FaultInjector:
    """Drives a :class:`FaultPlan` against a running session."""

    def __init__(
        self, session: "Session", plan: FaultPlan, name: str = "chaos"
    ) -> None:
        self.session = session
        self.env = session.env
        self.plan = plan
        self.name = name
        self.rng = session.stable_rng(f"faults:{name}")
        self.message_faults = MessageFaults(self.rng)
        #: (time, event) pairs in application order, for assertions.
        self.applied: list[tuple[float, FaultEvent]] = []
        #: Per-tenant flood accounting: publishes the synthetic tenant
        #: landed vs. ones the service refused (admission or outage).
        self.flood_sent: dict[str, int] = {}
        self.flood_refused: dict[str, int] = {}
        self._process = None

    def start(self) -> None:
        """Attach the message gate and launch the timeline process."""
        self.session.cluster.network.message_faults = self.message_faults
        self._process = self.env.process(self._run(), name=f"faults:{self.name}")

    # -- timeline -----------------------------------------------------

    def _run(self) -> Generator[Event, None, None]:
        for event in self.plan.timeline():
            if event.time > self.env.now:
                yield self.env.timeout(event.time - self.env.now)
            self._apply(event)
            if event.duration is not None:
                self.env.process(
                    self._restore_later(event),
                    name=f"faults:{self.name}:restore",
                )

    def _restore_later(self, event: FaultEvent) -> Generator[Event, None, None]:
        yield self.env.timeout(event.duration)
        self._restore(event)

    # -- dispatch -----------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        self.applied.append((self.env.now, event))
        if event.kind == NODE_CRASH:
            self._resolve_node(event.node).fail()
        elif event.kind == NODE_SLOWDOWN:
            self._resolve_node(event.node).set_speed_factor(event.factor)
        elif event.kind == PARTITION:
            self.session.cluster.network.sever(*event.racks)
        elif event.kind == RPC_DROP:
            self.message_faults.drop_probability = event.probability
            if event.delay > 0:
                self.message_faults.drop_stall = event.delay
        elif event.kind == RPC_DELAY:
            self.message_faults.delay_probability = event.probability
            self.message_faults.delay_seconds = event.delay
        elif event.kind == RPC_DUPLICATE:
            self.message_faults.duplicate_probability = event.probability
        elif event.kind in (SERVICE_OUTAGE, SHARD_OUTAGE):
            for server in self._soma_servers(event):
                server.shutdown()
        elif event.kind == TENANT_FLOOD:
            self.env.process(
                self._flood(event),
                name=f"faults:{self.name}:flood:{event.seq}",
            )
        elif event.kind == PROFILE_OUTAGE:
            self.session.profiles.set_available(False)
        self.session.tracer.record(
            "fault.inject",
            event.kind,
            seq=event.seq,
            target=self._target_label(event),
        )

    def _restore(self, event: FaultEvent) -> None:
        if event.kind == NODE_SLOWDOWN:
            self._resolve_node(event.node).set_speed_factor(1.0)
        elif event.kind == PARTITION:
            self.session.cluster.network.heal(*event.racks)
        elif event.kind == RPC_DROP:
            self.message_faults.drop_probability = 0.0
            self.message_faults.drop_stall = DEFAULT_DROP_STALL
        elif event.kind == RPC_DELAY:
            self.message_faults.delay_probability = 0.0
            self.message_faults.delay_seconds = 0.0
        elif event.kind == RPC_DUPLICATE:
            self.message_faults.duplicate_probability = 0.0
        elif event.kind in (SERVICE_OUTAGE, SHARD_OUTAGE):
            for server in self._soma_servers(event):
                server.restart()
        # TENANT_FLOOD needs no restore action: the flood process
        # stops itself when the window closes.
        elif event.kind == PROFILE_OUTAGE:
            self.session.profiles.set_available(True)
        self.session.tracer.record(
            "fault.restore",
            event.kind,
            seq=event.seq,
            target=self._target_label(event),
        )

    # -- helpers ------------------------------------------------------

    def _resolve_node(self, ref: "int | str | None") -> "Node":
        cluster = self.session.cluster
        if isinstance(ref, int):
            return cluster.nodes[ref]
        if isinstance(ref, str):
            return cluster.node_by_name(ref)
        raise TypeError(f"cannot resolve node reference {ref!r}")

    def _soma_servers(self, event: FaultEvent):
        """Registered SOMA servers an outage or flood targets.

        The event's namespaces (all when None) on its shard, or on every
        instance when it names none.  Resolved at apply time through the
        session's RPC registry, so the injector needs no handle on the
        SOMA deployment itself.
        """
        registry = self.session.rpc_registry
        servers = []
        for key in server_keys(registry.names()):
            instance, namespace = split_key(key)
            if event.shard is not None and instance != event.shard:
                continue
            if event.namespaces is not None and namespace not in event.namespaces:
                continue
            servers.append(registry.try_lookup(registry_name(key)))
        return servers

    def _flood(self, event: FaultEvent) -> Generator[Event, None, None]:
        """Synthetic-tenant overload: hammer one shard's ingest path.

        A raw RPC client (tenant-stamped, no retry) publishes tiny
        trees round-robin over the shard's namespace servers at
        ``event.rate`` publishes/s until the window closes.  Refusals
        (admission or outage) are expected — they're the point — so
        they only increment counters; :class:`~repro.sim.core.Interrupt`
        still propagates.
        """
        from ..conduit import Node as ConduitNode
        from ..messaging.protocol import RPCError
        from ..messaging.rpc import RPCClient

        servers = self._soma_servers(event)
        if not servers:
            return
        tenant = event.tenant or "flood"
        client = RPCClient(
            self.env,
            self.session.cluster.network,
            name=f"flood:{tenant}:{event.seq}",
            node=None,
            rng=self.session.stable_rng(f"faults:flood:{event.seq}"),
            component="chaos-flood",
            tenant=tenant,
        )
        deadline = self.env.now + (event.duration or 0.0)
        period = 1.0 / event.rate
        sent = 0
        while self.env.now < deadline:
            server = servers[sent % len(servers)]
            tree = ConduitNode()
            tree[f"FLOOD/{tenant}/seq"] = sent
            sent += 1
            try:
                yield from client.call(
                    server, "publish", body=tree, payload_bytes=tree.nbytes()
                )
                self.flood_sent[tenant] = self.flood_sent.get(tenant, 0) + 1
            except RPCError:
                self.flood_refused[tenant] = (
                    self.flood_refused.get(tenant, 0) + 1
                )
            remaining = deadline - self.env.now
            if remaining <= 0:
                break
            yield self.env.timeout(min(period, remaining))

    @staticmethod
    def _target_label(event: FaultEvent) -> str:
        if event.node is not None:
            return str(event.node)
        if event.racks is not None:
            return f"racks:{event.racks[0]}-{event.racks[1]}"
        if event.kind == SERVICE_OUTAGE:
            scope = ",".join(event.namespaces) if event.namespaces else "*"
            return f"{REGISTRY_PREFIX}:{scope}"
        if event.kind == SHARD_OUTAGE:
            return f"{REGISTRY_PREFIX}:{event.shard}"
        if event.kind == TENANT_FLOOD:
            return (
                f"{REGISTRY_PREFIX}:{event.shard}"
                f"<-{event.tenant}@{event.rate:g}/s"
            )
        if event.probability > 0:
            return f"p={event.probability:g}"
        return ""
