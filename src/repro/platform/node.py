"""A simulated compute node.

Carries all the state the paper's experiments observe: a core map and a
GPU map (what the RP agent scheduler allocates), a memory-bandwidth
contention domain (what makes co-located memory-bound ranks slow each
other down), and busy-time meters (what the synthetic /proc exposes to
the SOMA hardware monitor).
"""

from __future__ import annotations

import itertools
from typing import Any

from ..sim.core import Environment, SimulationError
from .metering import StepIntegrator
from .rateshare import Activity, ContentionDomain
from .specs import NodeSpec

__all__ = ["Node", "Allocation", "AllocationError", "NodeFailure"]


class AllocationError(SimulationError):
    """Raised when an allocation request cannot be satisfied."""


class NodeFailure(SimulationError):
    """Raised into computations running on a node when it fails."""


class Allocation:
    """A claim on cores (and optionally GPUs) of one node."""

    _ids = itertools.count()

    __slots__ = ("node", "cores", "gpus", "owner", "uid", "released")

    def __init__(
        self, node: "Node", cores: list[int], gpus: list[int], owner: str
    ) -> None:
        self.uid = next(Allocation._ids)
        self.node = node
        self.cores = cores
        self.gpus = gpus
        self.owner = owner
        self.released = False

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    def release(self) -> None:
        self.node.free(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Allocation {self.owner} node={self.node.name} "
            f"cores={len(self.cores)} gpus={len(self.gpus)}>"
        )


def _lowest_free(owners: list[str | None], count: int) -> list[int]:
    """The ``count`` lowest-index unowned slots of an owner map."""
    return [i for i, o in enumerate(owners) if o is None][:count]


class Node:
    """One compute node: resource maps + contention + accounting."""

    def __init__(self, env: Environment, index: int, spec: NodeSpec) -> None:
        self.env = env
        self.index = index
        self.spec = spec
        self.name = f"cn{index:04d}"
        #: core slot -> owner uid or None (only usable cores are mapped).
        self._core_owner: list[str | None] = [None] * spec.usable_cores
        self._gpu_owner: list[str | None] = [None] * spec.gpus
        #: Unowned slots in each map, kept in step by allocate/free so
        #: the scheduler's per-node fit check is O(1).
        self.free_cores = spec.usable_cores
        self.free_gpus = spec.gpus
        #: Memory-bandwidth contention domain for CPU compute.
        self.domain = ContentionDomain(env, capacity=spec.memory_bandwidth)
        #: Meters feeding the synthetic /proc.
        self.busy_cores = StepIntegrator(env)
        self.busy_gpus = StepIntegrator(env)
        self.allocated_cores = StepIntegrator(env)
        self.used_memory_mib = StepIntegrator(env)
        #: False once the node has failed (failure injection).
        self.alive = True
        #: Count of processes "running" (tasks + monitors), for /proc.
        self.num_processes = StepIntegrator(env)
        self.boot_time = env.now

    # -- allocation -------------------------------------------------------

    @property
    def total_cores(self) -> int:
        return self.spec.usable_cores

    @property
    def total_gpus(self) -> int:
        return self.spec.gpus

    def allocate(
        self, cores: int, gpus: int = 0, owner: str = "anonymous"
    ) -> Allocation:
        """Claim ``cores`` cores and ``gpus`` GPUs, or raise."""
        if not self.alive:
            raise AllocationError(f"{self.name} is down")
        if cores < 0 or gpus < 0:
            raise ValueError("resource counts must be non-negative")
        if self.free_cores < cores:
            raise AllocationError(
                f"{self.name}: need {cores} cores, only "
                f"{self.free_cores} free"
            )
        if self.free_gpus < gpus:
            raise AllocationError(
                f"{self.name}: need {gpus} GPUs, only "
                f"{self.free_gpus} free"
            )
        core_slots = _lowest_free(self._core_owner, cores)
        gpu_slots = _lowest_free(self._gpu_owner, gpus)
        for slot in core_slots:
            self._core_owner[slot] = owner
        for slot in gpu_slots:
            self._gpu_owner[slot] = owner
        self.free_cores -= cores
        self.free_gpus -= gpus
        self.allocated_cores.add(cores)
        return Allocation(self, core_slots, gpu_slots, owner)

    def free(self, allocation: Allocation) -> None:
        if allocation.released:
            return
        for slot in allocation.cores:
            self._core_owner[slot] = None
        for slot in allocation.gpus:
            self._gpu_owner[slot] = None
        self.free_cores += len(allocation.cores)
        self.free_gpus += len(allocation.gpus)
        self.allocated_cores.add(-len(allocation.cores))
        allocation.released = True

    def owners(self) -> set[str]:
        return {o for o in self._core_owner if o is not None} | {
            o for o in self._gpu_owner if o is not None
        }

    # -- execution ----------------------------------------------------------

    def run_compute(
        self,
        cores: int,
        work: float,
        mem_intensity: float = 0.0,
        demand_per_core: float = 1.0,
        cpu_busy: bool = True,
        tag: str = "",
        payload: Any = None,
    ) -> Activity:
        """Run ``work`` units of per-rank CPU work on ``cores`` cores.

        The returned activity's rate reacts to memory-bandwidth pressure
        from everything else on the node.  ``work`` is the critical-path
        work of the slowest rank; all ranks progress together.
        """
        if not self.alive:
            raise NodeFailure(f"{self.name} is down")
        act = self.domain.execute(
            work=work,
            weight=self.spec.core_speed,
            demand=cores * demand_per_core,
            mem_intensity=mem_intensity,
            tag=tag,
            payload=payload,
        )
        if cpu_busy and cores > 0:
            self.busy_cores.add(cores)
            self.num_processes.add(1)

            def _ended(_act: Any, cores: int = cores) -> None:
                # On node failure the meters were already zeroed.
                if self.alive:
                    self.busy_cores.add(-cores)
                    self.num_processes.add(-1)

            act.on_end.append(_ended)
        return act

    def run_gpu_compute(self, gpus: int, work: float, tag: str = "") -> Activity:
        """Run GPU work: exclusive devices, no cross-GPU contention.

        Modeled as a contention-free activity at ``gpu_speed`` per GPU
        group (the work value is the critical path of the slowest GPU).
        """
        if not self.alive:
            raise NodeFailure(f"{self.name} is down")
        act = self.domain.execute(
            work=work,
            weight=self.spec.gpu_speed,
            demand=0.0,
            mem_intensity=0.0,
            tag=tag or "gpu",
        )
        if gpus > 0:
            self.busy_gpus.add(gpus)

            def _ended(_act: Any, gpus: int = gpus) -> None:
                if self.alive:
                    self.busy_gpus.add(-gpus)

            act.on_end.append(_ended)
        return act

    def inject_jitter(self, cpu_seconds: float, mem_demand: float = 0.5) -> Activity:
        """Short OS-noise burst (monitor sampling, serialization, ...).

        Steals one core-equivalent for ``cpu_seconds`` and exerts a
        small memory-bandwidth demand, perturbing co-resident ranks —
        the paper's monitoring-overhead mechanism at the node level.
        """
        return self.run_compute(
            cores=1,
            work=cpu_seconds * self.spec.core_speed,
            mem_intensity=0.3,
            demand_per_core=mem_demand,
            cpu_busy=True,
            tag="jitter",
        )

    # -- memory ---------------------------------------------------------------

    def reserve_memory(self, mib: float) -> None:
        if self.used_memory_mib.value + mib > self.spec.memory_mib:
            raise AllocationError(
                f"{self.name}: out of memory "
                f"({self.used_memory_mib.value + mib} > {self.spec.memory_mib})"
            )
        self.used_memory_mib.add(mib)

    def release_memory(self, mib: float) -> None:
        self.used_memory_mib.add(-mib)

    @property
    def available_memory_mib(self) -> float:
        return self.spec.memory_mib - self.used_memory_mib.value

    # -- observation ------------------------------------------------------------

    def fail(self) -> None:
        """Fail the node: every resident computation dies.

        Tasks with ranks here observe :class:`NodeFailure` from their
        activities and end up FAILED; the scheduler stops considering
        the node for new placements.
        """
        if not self.alive:
            return
        self.alive = False
        self.busy_cores.set(0)
        self.busy_gpus.set(0)
        self.num_processes.set(0)
        self.domain.fail_all(NodeFailure(f"{self.name} failed"))

    def set_speed_factor(self, factor: float) -> None:
        """Slow the node down (or restore it): fault injection hook.

        Every resident computation — application ranks, monitor
        sampling, RPC service work — runs at ``factor`` of nominal
        speed until the factor is reset to 1.0.
        """
        self.domain.set_speed_factor(factor)

    @property
    def speed_factor(self) -> float:
        return self.domain.speed_factor

    def cpu_utilization(self) -> float:
        """Instantaneous fraction of usable cores that are busy."""
        return min(1.0, self.busy_cores.value / max(1, self.total_cores))

    def gpu_utilization(self) -> float:
        return min(1.0, self.busy_gpus.value / max(1, self.total_gpus))

    def uptime(self) -> float:
        return self.env.now - self.boot_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.name} cores={self.free_cores}/{self.total_cores} "
            f"gpus={self.free_gpus}/{self.total_gpus}>"
        )
