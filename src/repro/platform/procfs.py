"""Synthetic /proc filesystem for simulated nodes.

The SOMA hardware monitoring client of the paper periodically reads
``/proc`` (Listing 2): uptime, process counts, available RAM, and the
per-CPU jiffy counters in ``/proc/stat``.  This module synthesizes the
same counters from the node's meters, so the monitor observes exactly
what a real /proc reader would: *cumulative* values from which interval
utilization has to be computed by differencing.
"""

from __future__ import annotations

from ..conduit import Node as ConduitNode
from .node import Node

__all__ = ["ProcFS", "ProcSnapshot"]

#: Jiffies per second, as on a stock Linux kernel.
USER_HZ = 100.0


class ProcSnapshot:
    """One read of the synthetic /proc on a node."""

    __slots__ = (
        "hostname",
        "timestamp",
        "uptime",
        "num_processes",
        "available_ram_mib",
        "cpu_total_jiffies",
        "cpu_busy_jiffies",
        "gpu_busy_seconds",
        "ncores",
    )

    def __init__(
        self,
        hostname: str,
        timestamp: float,
        uptime: float,
        num_processes: int,
        available_ram_mib: float,
        cpu_total_jiffies: float,
        cpu_busy_jiffies: float,
        gpu_busy_seconds: float,
        ncores: int,
    ) -> None:
        self.hostname = hostname
        self.timestamp = timestamp
        self.uptime = uptime
        self.num_processes = num_processes
        self.available_ram_mib = available_ram_mib
        self.cpu_total_jiffies = cpu_total_jiffies
        self.cpu_busy_jiffies = cpu_busy_jiffies
        self.gpu_busy_seconds = gpu_busy_seconds
        self.ncores = ncores

    def utilization_since(self, prev: "ProcSnapshot | None") -> float:
        """CPU utilization between ``prev`` and this snapshot (0..1).

        Mirrors what the paper's hardware client computes online: the
        delta of busy jiffies over the delta of total jiffies.
        """
        if prev is None:
            if self.cpu_total_jiffies <= 0:
                return 0.0
            return min(1.0, self.cpu_busy_jiffies / self.cpu_total_jiffies)
        d_total = self.cpu_total_jiffies - prev.cpu_total_jiffies
        d_busy = self.cpu_busy_jiffies - prev.cpu_busy_jiffies
        if d_total <= 0:
            return 0.0
        return max(0.0, min(1.0, d_busy / d_total))

    @property
    def path(self) -> str:
        """Where this sample lives in the hardware namespace tree."""
        return f"PROC/{self.hostname}/{self.timestamp:.6f}"

    def to_conduit(self) -> ConduitNode:
        """Render as the Conduit tree of Listing 2."""
        root = ConduitNode()
        sample = root.fetch(self.path)
        sample["Uptime"] = round(self.uptime, 3)
        sample["Num Processes"] = self.num_processes
        sample["Available RAM"] = round(self.available_ram_mib, 1)
        stat = sample.fetch("stat")
        stat["cpu"] = [
            round(self.cpu_busy_jiffies, 1),
            round(self.cpu_total_jiffies - self.cpu_busy_jiffies, 1),
        ]
        stat["ncores"] = self.ncores
        sample["gpu/busy_seconds"] = round(self.gpu_busy_seconds, 3)
        return root


class ProcFS:
    """The /proc view of one node."""

    def __init__(self, node: Node) -> None:
        self.node = node

    def read(self) -> ProcSnapshot:
        """Take a snapshot; costs no simulated time by itself.

        The *CPU cost* of reading /proc is charged separately by the
        hardware monitor via :meth:`Node.inject_jitter`, matching the
        paper's separation of data access from measurement overhead.
        """
        node = self.node
        uptime = node.uptime()
        total_jiffies = uptime * node.total_cores * USER_HZ
        busy_jiffies = node.busy_cores.integral * USER_HZ
        return ProcSnapshot(
            hostname=node.name,
            timestamp=node.env.now,
            uptime=uptime,
            num_processes=node.num_processes,
            available_ram_mib=node.available_memory_mib,
            cpu_total_jiffies=total_jiffies,
            cpu_busy_jiffies=busy_jiffies,
            gpu_busy_seconds=node.busy_gpus.integral,
            ncores=node.total_cores,
        )
