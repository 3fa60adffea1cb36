"""The SOMA hardware monitoring client (paper Sec 2.3.2, Listing 2).

One client per compute node, running on a reserved core for the whole
workflow: "Basic information about the state of the hardware, gathered
periodically by reading /proc/ is captured by SOMA client tasks, which
can be scheduled on reserved cores on each compute node".

Each sample: read the synthetic /proc, compute the interval CPU
utilization online (delta of cumulative jiffies), pay the CPU cost of
the read+serialize on the local node, and publish it to the *hardware*
namespace instance.  Every sample has Listing 2's leaves, so it goes as
one row against :data:`PROC_SAMPLE`: the tree a reader gets back is
``PROC/<host>/<timestamp>/...``, with no tree built on the way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..conduit.rows import Schema
from ..rp.description import TaskDescription, TaskMode
from ..rp.model import ExecutionContext, ServiceModel, TaskResult
from ..sim.core import Interrupt
from ..soma.client import SomaClient
from ..soma.namespaces import HARDWARE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..platform.node import Node
    from ..rp.session import Session
    from ..soma.service import SomaConfig

__all__ = ["HardwareMonitorModel", "hardware_monitor_descriptions"]

#: CPU seconds consumed per sample by the /proc read + serialization.
SAMPLE_CPU_COST = 0.04

#: One sample under ``PROC/<host>/<timestamp:.6f>``: what /proc shows
#: (Listing 2), then the utilizations the client computes online.
PROC_SAMPLE = Schema(
    "PROC",
    (
        "Uptime",
        "Num Processes",
        "Available RAM",
        "stat/cpu",
        "stat/ncores",
        "gpu/busy_seconds",
        "cpu_utilization",
        "gpu_utilization",
    ),
)


class HardwareMonitorModel(ServiceModel):
    """Resident daemon sampling /proc on its node."""

    def __init__(
        self,
        session: "Session",
        config: "SomaConfig",
        stagger: float = 0.0,
    ) -> None:
        self.session = session
        self.config = config
        self.stagger = stagger
        self.samples = 0
        self.client: SomaClient | None = None

    def execute(self, ctx: ExecutionContext):
        env = ctx.env
        node = ctx.placements[0].node
        period = self.config.effective_hardware_frequency
        self.client = self.config.make_client(
            self.session, name=f"hwmon@{node.name}", node=node
        )
        procfs = self.session.cluster.procfs(node)
        prev = None
        prev_gpu_busy = 0.0
        prev_time = env.now
        try:
            # Stagger the first sample so a large machine's monitors do
            # not synchronize their publishes.
            if self.stagger > 0:
                yield env.timeout(self.stagger)
            while True:
                yield env.timeout(period)
                with self.session.telemetry.span(
                    "hwmon.sample", component="monitor", node=node.name
                ):
                    snap = procfs.read()
                    util = snap.utilization_since(prev)
                    dt = snap.timestamp - prev_time
                    gpu_util = 0.0
                    if dt > 0 and node.total_gpus > 0:
                        gpu_util = min(
                            1.0,
                            (snap.gpu_busy_seconds - prev_gpu_busy)
                            / (dt * node.total_gpus),
                        )
                    prev, prev_time = snap, snap.timestamp
                    prev_gpu_busy = snap.gpu_busy_seconds
                    self.samples += 1
                    # The cost of reading /proc + serializing the
                    # sample is real CPU on this node (reserved core +
                    # mem traffic).
                    act = node.inject_jitter(cpu_seconds=SAMPLE_CPU_COST)
                    yield act.done
                    busy = snap.cpu_busy_jiffies
                    values = (
                        round(snap.uptime, 3),
                        snap.num_processes,
                        round(snap.available_ram_mib, 1),
                        (round(busy, 1), round(snap.cpu_total_jiffies - busy, 1)),
                        snap.ncores,
                        round(snap.gpu_busy_seconds, 3),
                        round(util, 4),
                        round(gpu_util, 4),
                    )
                    key = f"{snap.hostname}/{snap.timestamp:.6f}"
                    yield from self.client.publish(
                        HARDWARE, [(PROC_SAMPLE, key, values)]
                    )
        except Interrupt:
            pass
        return TaskResult(exit_code=0)


def hardware_monitor_descriptions(
    session: "Session",
    config: "SomaConfig",
    nodes: "list[Node]",
) -> list[TaskDescription]:
    """One pinned monitor task per compute node (reserved core)."""
    descriptions = []
    period = config.effective_hardware_frequency
    for node in nodes:
        stagger = float(session.rng.uniform(0.0, period))
        model = HardwareMonitorModel(session, config, stagger=stagger)
        descriptions.append(
            TaskDescription(
                name=f"soma-hwmon-{node.name}",
                model=model,
                ranks=1,
                cores_per_rank=1,
                mode=TaskMode.MONITOR,
                multi_node=False,
                tags={"node": node.name},
                metadata={"monitor_model": model},
            )
        )
    return descriptions
