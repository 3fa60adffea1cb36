"""The SOMA service: namespace servers behind Mochi-style RPC.

SOMA "enables the partitioning of monitoring service resources into one
or more independent instances, each of which is responsible for
monitoring data from one source" (paper Sec 2.2).  The service runs as
an RP *service task*: scheduled before any application task, resident
for the whole workflow, shut down by RP at the end.

``SomaServiceModel`` is the :class:`~repro.rp.model.ServiceModel` RP
executes, and the only service class.  Its servers and stores come
from :meth:`SomaConfig.layout`: the paper's service is one unnamed
instance with one server per namespace, spread round-robin over the
service nodes; a sharded facility service runs instances ``s00``,
``s01``, ..., each serving every namespace on one node.  ``bring_up``
starts that layout and publishes the servers in the session's RPC
registry under the names :mod:`repro.soma.sharding` gives them, both
from RP's ``setup`` and, without a pilot, from the facility scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from ..conduit import Node as ConduitNode
from ..messaging.rpc import RPCRequest, RPCServer
from ..rp.description import TaskDescription, TaskMode
from ..rp.model import ExecutionContext, ServiceModel
from .namespaces import ALL_NAMESPACES
from .sharding import (
    DEFAULT_VNODES,
    AdmissionController,
    HashRing,
    instance_names,
    registry_name,
    route,
    server_key,
)
from .storage import NamespaceStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.retry import RetryPolicy
    from ..platform.network import Network
    from ..platform.node import Node
    from ..rp.session import Session
    from .client import SomaClient

__all__ = [
    "SomaConfig",
    "SomaServiceModel",
    "soma_service_description",
]


@dataclass(frozen=True, slots=True)
class SomaConfig:
    """Configuration of one SOMA deployment."""

    #: Service ranks per namespace instance (paper Tables 1-2).
    ranks_per_namespace: int = 1
    #: Namespaces to bring up.
    namespaces: tuple[str, ...] = ALL_NAMESPACES
    #: Monitoring/publication period in seconds (60 in most paper
    #: experiments; 10 in the "frequent" Scaling B runs).
    monitoring_frequency: float = 60.0
    #: Which monitor clients to deploy (proc / rp / tau).
    monitors: tuple[str, ...] = ("proc", "rp")
    #: Hardware-monitor sampling period, if different (Fig 7 uses 30 s).
    hardware_frequency: float | None = None
    #: Per-call CPU service time parameters of the instance servers.
    base_service_time: float = 2e-4
    per_byte_service_time: float = 2e-9
    #: Retry policy handed to every monitor's SOMA client (None = each
    #: publish is a single attempt, as in the failure-free paper runs).
    retry: "RetryPolicy | None" = None
    #: Shard-instance count for a facility deployment; 0 keeps the
    #: classic single-instance service the paper describes.
    shards: int = 0
    #: Virtual nodes per shard instance on the consistent-hash ring.
    ring_vnodes: int = DEFAULT_VNODES
    #: Tenant this deployment's own clients publish as (facility runs
    #: override per pilot via :meth:`make_client`).
    tenant: str = "default"
    #: Per-tenant publish budget, tokens/second, enforced per service
    #: instance; None disables admission control (the differential
    #: battery requires the disabled path to be byte-identical to the
    #: unsharded service).
    admission_rate: float | None = None
    #: Token-bucket depth: how large a publish burst a quiet tenant
    #: may land before the rate limit bites.
    admission_burst: float = 10.0

    @property
    def effective_hardware_frequency(self) -> float:
        return (
            self.hardware_frequency
            if self.hardware_frequency is not None
            else self.monitoring_frequency
        )

    @property
    def total_ranks(self) -> int:
        return self.ranks_per_namespace * len(self.namespaces) * max(
            1, self.shards
        )

    def layout(self) -> tuple[tuple[str, str | None, str, int], ...]:
        """Every server of the deployment: ``(key, instance, namespace, slot)``.

        Unsharded, the one unnamed instance (``None``) runs a server
        per namespace, namespace *i* on service node *i* mod N; sharded,
        instance *i* (``s00``, ``s01``, ...) runs every namespace on
        node *i* mod N.  ``slot`` is that *i*; ``key`` names the server
        and its store.
        """
        if not self.shards:
            return tuple(
                (server_key(None, ns), None, ns, i)
                for i, ns in enumerate(self.namespaces)
            )
        return tuple(
            (server_key(instance, ns), instance, ns, i)
            for i, instance in enumerate(instance_names(self.shards))
            for ns in self.namespaces
        )

    def make_ring(self) -> HashRing | None:
        """The sharded deployment's ring; None for a single instance."""
        if not self.shards:
            return None
        return HashRing(instance_names(self.shards), vnodes=self.ring_vnodes)

    def make_client(
        self,
        session: "Session",
        name: str,
        node: "Node | None" = None,
        tenant: str | None = None,
    ) -> "SomaClient":
        """A SOMA client wired for this deployment (routing + tenancy).

        Every monitor and application stub should obtain its client
        here so sharding and tenancy stay deployment-side decisions.
        """
        from .client import SomaClient

        return SomaClient(
            session,
            name=name,
            node=node,
            retry=self.retry,
            tenant=tenant if tenant is not None else self.tenant,
            ring=self.make_ring(),
        )

    def with_updates(self, **kwargs: Any) -> "SomaConfig":
        return replace(self, **kwargs)


class SomaServiceModel(ServiceModel):
    """The long-running SOMA service: every server of ``config.layout()``.

    Each instance is independent: its own stores, RPC servers and, when
    ``admission_rate`` is set, admission controller.  Clients route
    themselves (:func:`~repro.soma.sharding.route`), so a shard outage
    is contained by construction; the chaos battery pins that.
    """

    def __init__(self, session: "Session", config: SomaConfig) -> None:
        self.session = session
        self.config = config
        # Server and store maps are written by the service process and
        # read by every monitor/client process; opted in to the kernel's
        # write-between-yields race detection under sanitize=True.
        env = session.env
        self.servers: "dict[str, RPCServer]" = env.shared_dict("soma.servers")
        self.stores: "dict[str, NamespaceStore]" = env.shared_dict("soma.stores")
        #: The sharded deployment's ring; None for the paper's service.
        self.ring = config.make_ring()
        #: Per-instance admission controllers (empty when disabled).
        self.admission: dict[str | None, AdmissionController] = {}
        prov = getattr(session.telemetry, "provenance", None)
        for key, _instance, namespace, _slot in config.layout():
            store = NamespaceStore(namespace)
            if prov is not None:
                prov.watch_store(store, name=key)
            self.stores[key] = store
        self.publishes = 0

    # -- lifecycle ----------------------------------------------------------

    def bring_up(self, nodes: "list[Node]", network: "Network") -> None:
        """Start every server of the layout on ``nodes``.

        RP's :meth:`setup` passes the service task's nodes; the facility
        scenario, which has no pilot, passes its service nodes directly.
        """
        env = self.session.env
        config = self.config
        for key, instance, namespace, slot in config.layout():
            node = nodes[slot % len(nodes)]
            controller = self.admission.get(instance)
            if controller is None and config.admission_rate is not None:
                controller = AdmissionController(
                    env, rate=config.admission_rate, burst=config.admission_burst
                )
                self.admission[instance] = controller
            server = RPCServer(
                env=env,
                network=network,
                node=node,
                name=registry_name(key),
                ranks=config.ranks_per_namespace,
                base_service_time=config.base_service_time,
                per_byte_service_time=config.per_byte_service_time,
                component="soma-service",
                admission=controller,
            )
            store = self.stores[key]
            server.register(
                "publish", self._make_publish_handler(namespace, store)
            )
            server.register(
                "query", self._make_query_handler(namespace, store)
            )
            self.servers[key] = server
            self.session.rpc_registry.publish(server)
            self.session.tracer.record(
                "soma.instance",
                key,
                node=node.name,
                ranks=config.ranks_per_namespace,
            )

    def setup(self, ctx: ExecutionContext):
        """RP service-task entry: bring the layout up on the task's nodes."""
        self.bring_up(list(dict.fromkeys(ctx.nodes)), ctx.network)
        return
        yield  # pragma: no cover - setup is synchronous here

    def teardown(self, ctx: ExecutionContext) -> None:
        for server in self.servers.values():
            server.shutdown()
        self.session.tracer.record("soma.service", "teardown")

    # -- handlers ---------------------------------------------------------------

    def _make_publish_handler(self, namespace: str, store: NamespaceStore):
        def handle(request: RPCRequest) -> dict[str, Any]:
            data = request.body
            if not isinstance(data, ConduitNode):
                raise TypeError(
                    f"publish to {namespace!r} expects a Conduit Node, "
                    f"got {type(data).__name__}"
                )
            # The client sized the tree once for the wire; published
            # trees are never mutated, so that size is the stored one.
            record = store.append(
                time=self.session.env.now,
                source=request.client,
                data=data,
                nbytes=request.payload_bytes,
            )
            self.publishes += 1
            self.session.tracer.record(
                "soma.publish",
                namespace,
                source=request.client,
                nbytes=record.nbytes,
            )
            return {"stored": True, "nbytes": record.nbytes}

        return handle

    def _make_query_handler(self, namespace: str, store: NamespaceStore):
        def handle(request: RPCRequest) -> Any:
            body = request.body or {}
            kind = body.get("kind", "records")
            since = body.get("since")
            until = body.get("until")
            source = body.get("source")
            if kind == "records":
                return store.records(source=source, since=since, until=until)
            if kind == "latest":
                return store.latest(source=source)
            if kind == "merged":
                return store.merged(source=source, since=since, until=until)
            if kind == "sources":
                return sorted(store.sources())
            if kind == "stats":
                return {
                    "records": len(store),
                    "bytes": store.total_bytes,
                    "sources": len(store.sources()),
                }
            raise ValueError(f"unknown query kind {kind!r}")

        return handle

    # -- observability ---------------------------------------------------------

    def queue_stats(self) -> dict[str, dict[str, float]]:
        """Per-server ingest statistics, detector-ready.

        Keys are the layout's server keys; values are the plain-data
        shape :class:`~repro.analysis.bottleneck.DetectionContext` consumes,
        including the windowed burst peak so long quiet runs cannot
        dilute a saturation episode out of sight.
        """
        stats: dict[str, dict[str, float]] = {}
        for name, server in sorted(self.servers.items()):
            s = server.stats
            stats[name] = {
                "ranks": server.ranks,
                "calls": s.calls,
                "errors": s.errors,
                "rejections": s.rejections,
                "mean_queue_seconds": s.mean_queue_time,
                "peak_window_queue_seconds": s.worst_window_queue_time,
                "busy_seconds": s.busy_time,
            }
        return stats

    def admission_counters(self) -> dict[str | None, dict[str, dict[str, int]]]:
        """Per-instance, per-tenant admitted/rejected counts."""
        return {
            instance: controller.counters()
            for instance, controller in sorted(self.admission.items())
        }

    # -- offline access (after the run) ---------------------------------------------

    def store(self, namespace: str, tenant: str | None = None) -> NamespaceStore:
        """The store owning ``(tenant, namespace)``; the tenant defaults
        to the deployment's own and only matters when sharded."""
        tenant = tenant if tenant is not None else self.config.tenant
        return self.stores[route(self.ring, tenant, namespace)]


def soma_service_description(
    session: "Session",
    config: SomaConfig,
    ranks: int | None = None,
) -> TaskDescription:
    """The RP task description for the SOMA service task.

    The service task "can specify its resource requirements like any
    other regular RP application task" (Sec 2.3.1): one core per
    service rank, spreading over multiple service nodes when the rank
    count exceeds one node (Scaling B runs up to 1024 ranks).
    """
    model = SomaServiceModel(session, config)
    return TaskDescription(
        name="soma-service",
        model=model,
        ranks=ranks if ranks is not None else config.total_ranks,
        cores_per_rank=1,
        mode=TaskMode.SERVICE,
        multi_node=True,
        metadata={"soma_model": model},
    )
