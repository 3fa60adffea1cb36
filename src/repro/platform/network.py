"""Interconnect model: per-node injection caps over a tapered fabric.

Transfers share one fabric-wide :class:`FairShareChannel` whose
capacity is ``link_bandwidth * nodes ** taper_exponent`` (a tapered fat
tree); each transfer is additionally capped at the injection bandwidth
of a single node.  Message latency and per-message software overhead
are charged up front.

Everything that moves bytes — MPI halo exchanges inside application
tasks, SOMA client publishes, RP control traffic — goes through this
one object, so monitoring traffic and application traffic interfere
exactly as they would on a shared fabric.
Fault-injection hooks
---------------------
The fabric carries two pieces of fault state consulted by upper layers:

* **rack partitions** — node indices are grouped into racks of
  ``rack_size``; :meth:`Network.sever` blocks traffic between two racks
  until :meth:`Network.heal`.  Transfers that declare their endpoints
  (``src``/``dst``) park until the path heals; endpoint-less transfers
  (e.g. intra-task MPI) are unaffected.
* **message faults** — ``message_faults`` is an attachment point for a
  :class:`repro.faults.MessageFaults` gate; the RPC layer consults it
  to drop, delay or duplicate individual calls.  The platform layer
  never imports it, so the dependency points strictly upward.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..sim.core import Environment, Event
from .node import Node
from .rateshare import FairShareChannel
from .specs import NetworkSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import MessageFaults

__all__ = ["Network", "TransferStats"]

#: Default nodes per rack (a Summit cabinet holds 18 nodes).
DEFAULT_RACK_SIZE = 18


class TransferStats:
    """Aggregate accounting of everything that crossed the fabric."""

    __slots__ = ("transfers", "bytes", "by_tag")

    def __init__(self) -> None:
        self.transfers = 0
        self.bytes = 0.0
        self.by_tag: dict[str, tuple[int, float]] = {}

    def record(self, tag: str, nbytes: float) -> None:
        self.transfers += 1
        self.bytes += nbytes
        count, total = self.by_tag.get(tag, (0, 0.0))
        self.by_tag[tag] = (count + 1, total + nbytes)


class Network:
    """Shared interconnect for a cluster."""

    def __init__(
        self,
        env: Environment,
        spec: NetworkSpec,
        nodes: int,
        rack_size: int = DEFAULT_RACK_SIZE,
    ) -> None:
        self.env = env
        self.spec = spec
        self.nodes = nodes
        bisection = spec.link_bandwidth * max(1, nodes) ** spec.taper_exponent
        self.fabric = FairShareChannel(env, capacity=bisection)
        self.stats = TransferStats()
        #: Nodes per rack for the partition model (mutable: small test
        #: clusters set 1 so every node is its own rack).
        self.rack_size = rack_size
        self._severed: set[frozenset[int]] = set()
        self._heal_waiters: list[Event] = []
        #: Transfers that had to park behind a severed rack pair.
        self.blocked_transfers = 0
        #: Attachment point for a fault-injection message gate; the RPC
        #: layer consults it, the platform layer never touches it.
        self.message_faults: "MessageFaults | None" = None

    # -- partitions (fault injection) ----------------------------------

    def rack_of(self, node: Node) -> int:
        """The rack index ``node`` lives in."""
        return node.index // max(1, self.rack_size)

    def sever(self, rack_a: int, rack_b: int) -> None:
        """Block all endpoint-declared traffic between two racks."""
        if rack_a == rack_b:
            raise ValueError("cannot partition a rack from itself")
        self._severed.add(frozenset((rack_a, rack_b)))

    def heal(self, rack_a: int | None = None, rack_b: int | None = None) -> None:
        """Heal one severed rack pair (or all of them) and wake waiters."""
        if rack_a is None:
            self._severed.clear()
        else:
            self._severed.discard(frozenset((rack_a, rack_b)))
        waiters, self._heal_waiters = self._heal_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    @property
    def partitioned(self) -> bool:
        return bool(self._severed)

    def path_blocked(self, src: Node | None, dst: Node | None) -> bool:
        """True if ``src`` -> ``dst`` currently crosses a severed pair."""
        if not self._severed or src is None or dst is None:
            return False
        return frozenset((self.rack_of(src), self.rack_of(dst))) in self._severed

    def await_path(
        self, src: Node, dst: Node
    ) -> Generator[Event, None, None]:
        """Park until the ``src`` -> ``dst`` path is connected again."""
        while self.path_blocked(src, dst):
            event = self.env.event()
            self._heal_waiters.append(event)
            yield event

    def transfer(
        self,
        nbytes: float,
        messages: int = 1,
        tag: str = "data",
        src: Node | None = None,
        dst: Node | None = None,
    ) -> Generator[Event, None, float]:
        """Move ``nbytes`` (in ``messages`` messages) across the fabric.

        This is a process generator: ``yield from net.transfer(...)`` or
        ``env.process(net.transfer(...))``.  Returns the elapsed time.
        Declaring ``src``/``dst`` makes the transfer partition-aware: it
        parks until the rack pair is connected (callers bound the wait
        with their own timeout).
        """
        start = self.env.now
        if self.path_blocked(src, dst):
            self.blocked_transfers += 1
            yield from self.await_path(src, dst)  # type: ignore[arg-type]
        self.stats.record(tag, nbytes)
        overhead = self.spec.latency + self.spec.message_overhead * max(1, messages)
        if overhead > 0:
            yield self.env.timeout(overhead)
        if nbytes > 0:
            act = self.fabric.execute(
                work=float(nbytes),
                weight=1.0,
                rate_cap=self.spec.link_bandwidth,
            )
            yield act.done
        return self.env.now - start

    def pressure(self) -> float:
        """Current fabric demand relative to capacity."""
        active = len(self.fabric.active)
        if active == 0:
            return 0.0
        return min(
            1.0, active * self.spec.link_bandwidth / self.fabric.capacity
        )
