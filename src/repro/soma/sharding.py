"""Consistent-hash sharding, tenancy and server naming for SOMA.

The paper deploys SOMA per workflow: one service instance, one set of
namespace ranks.  A facility deployment shares *one* SOMA service
across hundreds of concurrent pilots by running several instances of
it.  This module holds what both need:

* the naming rule — every SOMA server has a key, the namespace for the
  paper's single unnamed instance or ``<instance>.<namespace>`` for a
  shard instance (:func:`server_key`), registered as ``soma.<key>``
  (:func:`registry_name`); :func:`route` picks the key owning a
  ``(tenant, namespace)`` pair.  Clients, the service, the deployment
  and the fault injector all name servers through these functions.
* :class:`HashRing` — a consistent-hash ring with virtual nodes
  mapping ``(tenant, namespace)`` shard keys to service instances.
  Positions come from BLAKE2b over the vnode label, so placement is
  identical across processes, seeds, and ``PYTHONHASHSEED`` values,
  and adding/removing an instance only remaps the keys owned by the
  moved vnode arcs (minimal-remap property, pinned by tests).
* :class:`AdmissionController` — per-tenant token buckets gating the
  publish ingest path.  Refill is pure arithmetic on the simulated
  clock (no kernel events), so arming admission control never
  perturbs event ordering.

Everything here is deliberately plain data + arithmetic: no sim
processes, no RNG, no wall clock — the sharding layer must be exactly
as deterministic as the store it fronts.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..messaging.protocol import RPCRequest
    from ..sim.core import Environment

__all__ = [
    "DEFAULT_VNODES",
    "REGISTRY_PREFIX",
    "AdmissionController",
    "HashRing",
    "TokenBucket",
    "instance_names",
    "registry_name",
    "route",
    "server_key",
    "server_keys",
    "shard_key",
    "split_key",
]

#: Default virtual nodes per instance.  128 vnodes keeps the max/mean
#: shard-load ratio under ~1.25 for thousands of keys (pinned by the
#: Hypothesis balance test) while keeping ring construction trivial.
DEFAULT_VNODES = 128

#: Registry namespace of every SOMA server name.
REGISTRY_PREFIX = "soma"


def shard_key(tenant: str, namespace: str) -> str:
    """The ring key for one tenant's view of one namespace."""
    return f"{tenant}/{namespace}"


def instance_names(count: int) -> tuple[str, ...]:
    """Canonical shard-instance names: ``s00``, ``s01``, ..."""
    return tuple(f"s{i:02d}" for i in range(count))


def server_key(instance: str | None, namespace: str) -> str:
    """Key of one SOMA server and its store in the service's maps.

    The paper's single instance is unnamed (``None``) and keys its
    servers by namespace; shard instance ``s01`` keys them
    ``s01.<namespace>``.
    """
    return namespace if instance is None else f"{instance}.{namespace}"


def split_key(key: str) -> tuple[str | None, str]:
    """The ``(instance, namespace)`` a :func:`server_key` was made from."""
    instance, _, namespace = key.rpartition(".")
    return instance or None, namespace


def registry_name(key: str) -> str:
    """The RPC registry name a server key is published under."""
    return f"{REGISTRY_PREFIX}.{key}"


def server_keys(names: Iterable[str]) -> list[str]:
    """The SOMA server keys among registry ``names``, sorted."""
    prefix = f"{REGISTRY_PREFIX}."
    return sorted(name[len(prefix):] for name in names if name.startswith(prefix))


def route(ring: HashRing | None, tenant: str, namespace: str) -> str:
    """Key of the server owning ``(tenant, namespace)``.

    Without a ring (the paper's single instance) that is the namespace's
    one server, and no hashing happens; with one, the ring picks the
    instance.
    """
    owner = None if ring is None else ring.owner(shard_key(tenant, namespace))
    return server_key(owner, namespace)


def _position(label: str) -> int:
    """Ring position of a label: 64-bit BLAKE2b, platform-independent.

    ``hash()`` would be ``PYTHONHASHSEED``-dependent and break the
    cross-process placement contract; hashlib is stable everywhere.
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each instance contributes ``vnodes`` points at
    ``blake2b("<instance>#<v>")``; a key is owned by the first vnode
    clockwise from ``blake2b(key)`` (wrapping at the top).  Lookup is
    a bisect over the sorted point list — O(log(instances·vnodes)).
    """

    def __init__(
        self, instances: Iterable[str] = (), vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes <= 0:
            raise ValueError("ring needs at least one vnode per instance")
        self.vnodes = vnodes
        #: Sorted (position, instance) points; parallel key list for
        #: bisect (tuples would compare instances on position ties).
        self._points: list[tuple[int, str]] = []
        self._positions: list[int] = []
        self._instances: set[str] = set()
        for name in instances:
            self.add(name)

    @property
    def instances(self) -> tuple[str, ...]:
        return tuple(sorted(self._instances))

    def __len__(self) -> int:
        return len(self._instances)

    def __contains__(self, instance: str) -> bool:
        return instance in self._instances

    def _vnode_points(self, instance: str) -> list[tuple[int, str]]:
        return [
            (_position(f"{instance}#{v}"), instance)
            for v in range(self.vnodes)
        ]

    def add(self, instance: str) -> None:
        """Join an instance; only keys on its vnode arcs change owner."""
        if instance in self._instances:
            raise ValueError(f"instance {instance!r} already on the ring")
        self._instances.add(instance)
        for point in self._vnode_points(instance):
            insort(self._points, point)
        self._positions = [pos for pos, _ in self._points]

    def remove(self, instance: str) -> None:
        """Leave the ring; its keys fall to the next vnode clockwise."""
        if instance not in self._instances:
            raise ValueError(f"instance {instance!r} not on the ring")
        self._instances.discard(instance)
        self._points = [p for p in self._points if p[1] != instance]
        self._positions = [pos for pos, _ in self._points]

    def owner(self, key: str) -> str:
        """The instance owning ``key`` (first vnode clockwise)."""
        if not self._points:
            raise ValueError("ring has no instances")
        index = bisect_right(self._positions, _position(key))
        if index == len(self._points):
            index = 0  # wrap past the top of the ring
        return self._points[index][1]

    def load(self, keys: Iterable[str]) -> dict[str, int]:
        """Keys-per-instance histogram (every instance present)."""
        counts = {name: 0 for name in self._instances}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts


class TokenBucket:
    """One tenant's publish budget: ``rate`` tokens/s, depth ``burst``.

    Refill happens lazily at admission time from the elapsed simulated
    clock — no timers, no events, nothing a clean run could observe.
    """

    __slots__ = ("rate", "burst", "tokens", "last_refill")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last_refill = 0.0

    def admit(self, now: float) -> bool:
        if now > self.last_refill:
            self.tokens = min(
                self.burst, self.tokens + (now - self.last_refill) * self.rate
            )
            self.last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-tenant token-bucket admission gate for one service instance.

    Plugged into :class:`~repro.messaging.rpc.RPCServer` as its
    ``admission`` callable.  Only ``publish`` calls are throttled —
    queries are cheap, rare, and usually analysis-side; rejecting them
    would starve the observability consumers the service exists for.
    """

    def __init__(
        self, env: "Environment", rate: float, burst: float = 10.0
    ) -> None:
        if rate <= 0:
            raise ValueError("admission rate must be positive")
        self.env = env
        self.rate = rate
        self.burst = burst
        self._buckets: dict[str, TokenBucket] = {}
        #: Per-tenant admitted / rejected counters, for queue_stats().
        self.admitted: dict[str, int] = {}
        self.rejected: dict[str, int] = {}

    def __call__(self, request: "RPCRequest") -> bool:
        if request.method != "publish":
            return True
        bucket = self._buckets.get(request.tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst)
            self._buckets[request.tenant] = bucket
        if bucket.admit(self.env.now):
            self.admitted[request.tenant] = (
                self.admitted.get(request.tenant, 0) + 1
            )
            return True
        self.rejected[request.tenant] = (
            self.rejected.get(request.tenant, 0) + 1
        )
        return False

    def counters(self) -> dict[str, dict[str, int]]:
        """Plain-data per-tenant admission counters."""
        return {
            "admitted": dict(sorted(self.admitted.items())),
            "rejected": dict(sorted(self.rejected.items())),
        }
