"""Hardware specifications for simulated platforms.

The experiments in the paper all ran on OLCF Summit; the constants here
follow the public system documentation the paper cites: 2 × POWER9 with
44 physical cores of which 2 are reserved for the OS (42 usable), 6
V100 GPUs, 512 GB DDR4 per node, dual-rail EDR InfiniBand in a
non-blocking (but in practice tapered) fat tree.

Absolute speeds are expressed in abstract "work units per second"; the
workload models are calibrated in the same units, so only ratios
matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NodeSpec", "NetworkSpec", "ClusterSpec", "SUMMIT", "summit_like"]


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """Static description of one compute node."""

    #: Physical cores present on the node.
    physical_cores: int = 44
    #: Cores reserved for the operating system (not schedulable).
    os_reserved_cores: int = 2
    #: GPUs per node.
    gpus: int = 6
    #: Memory in MiB.
    memory_mib: int = 512 * 1024
    #: Work units per second delivered by one core at full speed.
    core_speed: float = 1.0
    #: Work units per second delivered by one GPU at full speed.
    gpu_speed: float = 40.0
    #: Aggregate memory bandwidth, in units of "core-demand": a value of
    #: ``N`` means N cores each demanding 1.0 saturate the memory bus.
    #: STREAM-like saturation well below the full core count, as on
    #: POWER9: ~18 memory-bound ranks saturate the two sockets.
    memory_bandwidth: float = 18.0

    @property
    def usable_cores(self) -> int:
        """Cores available to the pilot (physical minus OS-reserved)."""
        return self.physical_cores - self.os_reserved_cores


@dataclass(frozen=True, slots=True)
class NetworkSpec:
    """Interconnect description.

    The fabric is modeled as per-node injection links feeding a shared
    core whose usable bisection tapers with node count:
    ``bisection = link_bandwidth * nodes ** taper_exponent``.
    """

    #: One-way small-message latency in seconds.
    latency: float = 1.5e-6
    #: Per-node injection bandwidth in bytes/second (dual-rail EDR).
    link_bandwidth: float = 23e9
    #: Exponent of the bisection taper (1.0 = full bisection).
    taper_exponent: float = 0.82
    #: Per-hop software/protocol overhead per message, seconds.
    message_overhead: float = 5e-6


@dataclass(frozen=True, slots=True)
class ClusterSpec:
    """A cluster: homogeneous nodes plus an interconnect."""

    name: str = "summit"
    nodes: int = 32
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    #: Seconds for the batch system to start a granted job on its nodes.
    job_launch_overhead: float = 15.0


#: The Summit-like reference platform used by all paper experiments.
SUMMIT = ClusterSpec()


def summit_like(nodes: int, name: str = "summit") -> ClusterSpec:
    """A Summit-flavoured cluster spec with ``nodes`` compute nodes."""
    return ClusterSpec(name=name, nodes=nodes)
