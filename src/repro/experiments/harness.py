"""Experiment harness: one entry point per paper experiment family.

Wraps the full stack — session, pilot, SOMA deployment, workload
submission, shutdown — into plain functions returning
:class:`WorkflowResult` objects that benches and tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from ..platform.specs import ClusterSpec, summit_like
from ..rp.client import Client
from ..rp.config import RPConfig
from ..rp.description import PilotDescription
from ..rp.session import Session
from ..rp.task import Task
from ..sim.core import Event
from ..soma.integration import SomaDeployment, deploy_soma, no_soma
from ..soma.service import SomaConfig

__all__ = ["WorkflowResult", "run_workflow"]


@dataclass(slots=True)
class WorkflowResult:
    """Everything a finished workflow run exposes for analysis."""

    session: Session
    client: Client
    deployment: SomaDeployment
    tasks: dict[str, Task]
    #: Virtual time from pilot-active to workload completion.
    makespan: float
    #: Virtual time at workload completion.
    finished_at: float
    #: Free-form payload the workload function returned.
    payload: Any = None
    #: The fault injector armed for this run, if any.
    injector: Any = None

    @property
    def application_tasks(self) -> list[Task]:
        return [t for t in self.tasks.values() if t.is_application]


def run_workflow(
    workload: Callable[[Client, SomaDeployment], Generator[Event, Any, Any]],
    nodes: int,
    agent_nodes: int = 1,
    service_nodes: int = 0,
    share_service_nodes: bool = False,
    soma_config: SomaConfig | None = None,
    cluster_spec: ClusterSpec | None = None,
    rp_config: RPConfig | None = None,
    seed: int = 42,
    drain_seconds: float = 0.0,
    fault_plan: Any = None,
) -> WorkflowResult:
    """Run one complete workflow on a fresh simulated machine.

    ``workload`` is a process generator receiving the active client and
    the SOMA deployment; whatever it returns becomes the result's
    ``payload``.  ``soma_config=None`` runs the baseline ("none")
    configuration with no service and no monitors.  Telemetry,
    provenance and the sanitizers follow
    :func:`~repro.sim.core.observability`; the simulated run is
    byte-identical either way.  ``fault_plan`` (a
    :class:`repro.faults.FaultPlan`) arms a
    :class:`~repro.faults.FaultInjector` against the session before the
    run starts — this is how the bottleneck scenarios inject their
    known faults.
    """
    spec = cluster_spec or summit_like(nodes + agent_nodes + service_nodes)
    session = Session(
        cluster_spec=spec,
        config=rp_config,
        seed=seed,
    )
    client = Client(session)
    env = session.env
    box: dict[str, Any] = {}

    injector = None
    if fault_plan is not None:
        from ..faults import FaultInjector

        injector = FaultInjector(session, fault_plan)
        injector.start()

    def main() -> Generator[Event, Any, None]:
        pilot = yield from client.submit_pilot(
            PilotDescription(
                nodes=nodes,
                agent_nodes=agent_nodes,
                service_nodes=service_nodes,
                share_service_nodes=share_service_nodes,
                walltime=30 * 24 * 3600.0,
            )
        )
        if soma_config is not None:
            deployment = yield from deploy_soma(client, pilot, soma_config)
        else:
            deployment = no_soma(session)
        box["deployment"] = deployment
        start = env.now
        payload = yield from workload(client, deployment)
        box["payload"] = payload
        box["makespan"] = env.now - start
        if drain_seconds > 0:
            # Let one more monitoring cycle land before shutdown.
            yield env.timeout(drain_seconds)
        client.close()

    proc = env.process(main(), name="workflow-main")
    env.run(proc)

    return WorkflowResult(
        session=session,
        client=client,
        deployment=box["deployment"],
        tasks=dict(client.task_manager.tasks),
        makespan=box["makespan"],
        finished_at=env.now,
        payload=box.get("payload"),
        injector=injector,
    )
