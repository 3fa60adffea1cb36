"""RP–SOMA integration (the paper's novel contribution, Sec 2.3).

Wires a SOMA deployment into a running RP pilot following the timeline
of Fig 2:

1. the SOMA service task is scheduled first (on the service/agent
   nodes) and publishes its RPC addresses;
2. the RP monitoring client is scheduled, one per workflow, co-located
   with the RP agent;
3. hardware monitoring clients are scheduled, one per compute node, on
   a reserved core each;
4. only then should the caller submit application tasks (optionally
   wrapped with the TAU plugin for the performance namespace).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..monitors.hardware_monitor import (
    HardwareMonitorModel,
    hardware_monitor_descriptions,
)
from ..monitors.rp_monitor import RPMonitorModel, rp_monitor_description
from ..monitors.tau import TAUWrappedModel
from ..rp.description import TaskDescription
from ..rp.task import Task
from ..sim.core import Event
from .service import SomaConfig, SomaServiceModel, soma_service_description
from .sharding import registry_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rp.client import Client
    from ..rp.pilot import Pilot
    from ..rp.session import Session

__all__ = ["SomaDeployment", "deploy_soma"]


class SomaDeployment:
    """Handles to everything a deployed SOMA stack consists of."""

    def __init__(
        self,
        session: "Session",
        config: SomaConfig,
        service_model: SomaServiceModel | None,
        rp_monitor_task: Task | None,
        hw_monitor_tasks: list[Task],
    ) -> None:
        self.session = session
        self.config = config
        self.service_model = service_model
        self.rp_monitor_task = rp_monitor_task
        self.hw_monitor_tasks = hw_monitor_tasks

    @property
    def enabled(self) -> bool:
        return self.service_model is not None

    @property
    def rp_monitor_model(self) -> RPMonitorModel | None:
        if self.rp_monitor_task is None:
            return None
        return self.rp_monitor_task.description.metadata["monitor_model"]

    def hw_monitor_models(self) -> list[HardwareMonitorModel]:
        return [
            t.description.metadata["monitor_model"] for t in self.hw_monitor_tasks
        ]

    def wrap_with_tau(self, description: TaskDescription) -> TaskDescription:
        """Wrap an application task with the TAU plugin (performance ns)."""
        if description.model is None:
            raise ValueError(f"{description.name}: no model to wrap")
        description.model = TAUWrappedModel(
            self.session, self.config, description.model
        )
        return description

    def store(self, namespace: str):
        """Offline access to a namespace store after the run."""
        if self.service_model is None:
            raise RuntimeError("SOMA not deployed (baseline run)")
        return self.service_model.store(namespace)


def deploy_soma(
    client: "Client",
    pilot: "Pilot",
    config: SomaConfig,
) -> Generator[Event, None, SomaDeployment]:
    """Deploy the SOMA stack onto an active pilot (process generator).

    Submits the service task, waits for its instances to publish their
    RPC addresses, then submits the monitoring clients per ``config``.
    """
    session = client.session

    # Step 3 (Fig 2): the SOMA service, before anything else.
    service_td = soma_service_description(session, config)
    client.submit_tasks([service_td])
    service_model: SomaServiceModel = service_td.metadata["soma_model"]

    # Wait until every server of the layout is reachable, so clients
    # never race the slowest instance's bring-up.
    for key, _instance, _namespace, _slot in config.layout():
        yield from session.rpc_registry.lookup(registry_name(key))

    # Step 4: the RP monitoring client, one per workflow, on the agent
    # node.
    rp_monitor_task = None
    if "rp" in config.monitors:
        (rp_monitor_task,) = client.submit_tasks(
            [rp_monitor_description(session, config)]
        )

    # Step 5: one hardware monitor per compute node (+ shared service
    # nodes, which also host application work in shared mode).
    hw_tasks: list[Task] = []
    if "proc" in config.monitors:
        nodes = list(pilot.compute_nodes)
        if pilot.description.share_service_nodes:
            nodes += list(pilot.service_nodes)
        hw_tasks = client.submit_tasks(
            hardware_monitor_descriptions(session, config, nodes)
        )

    session.tracer.record(
        "soma.deployed",
        "stack",
        namespaces=list(config.namespaces),
        monitors=list(config.monitors),
        frequency=config.monitoring_frequency,
    )
    return SomaDeployment(
        session=session,
        config=config,
        service_model=service_model,
        rp_monitor_task=rp_monitor_task,
        hw_monitor_tasks=hw_tasks,
    )


def no_soma(session: "Session") -> SomaDeployment:
    """A disabled deployment for baseline ("none") runs."""
    return SomaDeployment(
        session=session,
        config=SomaConfig(monitors=()),
        service_model=None,
        rp_monitor_task=None,
        hw_monitor_tasks=[],
    )
