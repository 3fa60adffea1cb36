"""Experiment harness: one entry point per paper experiment family.

Wraps the full stack — session, pilot, SOMA deployment, workload
submission, shutdown — into plain functions returning
:class:`WorkflowResult` objects that benches and tests consume.

The module also hosts the *cell-family registry* the sweep engine
(:mod:`repro.sweep`) dispatches through: a cell is ``(family, params,
seed)`` — all plain data — and :func:`run_cell` resolves the family by
name to a module-level function, so a cell pickles cleanly into a
worker process with no closures attached.
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

__all__ = [
    "WorkflowResult",
    "run_workflow",
    "register_cell_family",
    "cell_families",
    "run_cell",
]

#: family name -> function(params: dict, seed: int) -> JSON-able payload.
_CELL_FAMILIES: dict[str, Callable[[dict, int], dict]] = {}


def register_cell_family(
    name: str,
) -> Callable[[Callable[[dict, int], dict]], Callable[[dict, int], dict]]:
    """Register a module-level function as a sweep cell family.

    The function must be picklable by reference (defined at module
    level) and must reduce its run to a plain JSON-able payload dict —
    that payload is what gets digested, cached, and journalled.
    """

    def decorate(fn: Callable[[dict, int], dict]) -> Callable[[dict, int], dict]:
        if name in _CELL_FAMILIES and _CELL_FAMILIES[name] is not fn:
            raise ValueError(f"cell family {name!r} already registered")
        _CELL_FAMILIES[name] = fn
        return fn

    return decorate


def cell_families() -> tuple[str, ...]:
    """Names of the registered families (built-ins load on demand)."""
    _ensure_builtin_families()
    return tuple(sorted(_CELL_FAMILIES))


def _ensure_builtin_families() -> None:
    # The built-in families live in repro.sweep.cells; importing the
    # module registers them.  Lazy to keep harness import-light and to
    # avoid an import cycle (sweep.cells imports this module).
    from ..sweep import cells as _cells  # noqa: F401


def run_cell(family: str, params: dict, seed: int) -> dict:
    """Run one self-contained cell and return its plain-data payload.

    This is the function sweep workers execute: a top-level callable
    taking only plain arguments, so ``(family, params, seed)`` is the
    entire pickled state of a cell.
    """
    _ensure_builtin_families()
    try:
        fn = _CELL_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(_CELL_FAMILIES)) or "(none)"
        raise KeyError(
            f"unknown cell family {family!r}; registered: {known}"
        ) from None
    return fn(dict(params), int(seed))


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

    def tasks_by_name_prefix(self, prefix: str) -> list[Task]:
        return [
            t
            for t in self.tasks.values()
            if t.description.name.startswith(prefix)
        ]


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
    trace: bool = True,
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
        trace=trace,
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
