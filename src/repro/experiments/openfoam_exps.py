"""The OpenFOAM workflow experiments (paper Sec 3.1, Table 1).

Two runs on the Summit-like platform:

* **tuning** — one instance of each task configuration (20, 41, 82,
  164 MPI ranks) across 4 compute nodes (+1 agent/SOMA node);
* **overloaded** — 20 instances of each configuration across 10
  compute nodes (+1 agent/SOMA node).

Monitors: proc (hardware, every 30 s as in Fig 7), rp (workflow), and
the TAU plugin wrapping every application task.  One SOMA rank per
namespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from ..rp.client import Client
from ..rp.description import TaskDescription
from ..sim.core import Event
from ..soma.integration import SomaDeployment
from ..soma.namespaces import HARDWARE, PERFORMANCE, WORKFLOW
from ..soma.service import SomaConfig
from ..workloads.openfoam import OpenFOAMParams, openfoam_task_description
from .harness import WorkflowResult, run_workflow

__all__ = [
    "OpenFOAMExperiment",
    "TUNING",
    "OVERLOAD",
    "run_openfoam_experiment",
]

#: The four task configurations of Table 1.
RANK_CONFIGS = (20, 41, 82, 164)


#: Hardware sampling period of the Table 1 runs, in seconds.
HARDWARE_FREQUENCY = 30.0


@dataclass(frozen=True, slots=True)
class OpenFOAMExperiment:
    """One row of Table 1: every task runs under TAU when SOMA is deployed."""

    name: str
    instances_per_config: int
    compute_nodes: int
    agent_nodes: int = 1
    rank_configs: tuple[int, ...] = RANK_CONFIGS
    monitors: tuple[str, ...] = ("proc", "rp")
    monitoring_frequency: float = 60.0
    soma_ranks_per_namespace: int = 1
    #: 0 = the paper's single-instance deployment; N>0 shards the
    #: service across N instances behind the consistent-hash ring.
    soma_shards: int = 0
    params: OpenFOAMParams = field(default_factory=OpenFOAMParams)

    @property
    def num_tasks(self) -> int:
        return self.instances_per_config * len(self.rank_configs)

    def soma_config(self) -> SomaConfig:
        return SomaConfig(
            ranks_per_namespace=self.soma_ranks_per_namespace,
            namespaces=(WORKFLOW, HARDWARE, PERFORMANCE),
            monitoring_frequency=self.monitoring_frequency,
            hardware_frequency=HARDWARE_FREQUENCY,
            monitors=self.monitors,
            shards=self.soma_shards,
        )


#: Table 1, "Tuning" column: 4 tasks, 4 (+1) nodes.
TUNING = OpenFOAMExperiment(
    name="tuning", instances_per_config=1, compute_nodes=4
)

#: Table 1, "Overload" column: 80 tasks, 10 (+1) nodes.
OVERLOAD = OpenFOAMExperiment(
    name="overload", instances_per_config=20, compute_nodes=10
)


def run_openfoam_experiment(
    experiment: OpenFOAMExperiment, seed: int = 42
) -> WorkflowResult:
    """Run one OpenFOAM workflow under SOMA monitoring."""

    def workload(
        client: Client, deployment: SomaDeployment
    ) -> Generator[Event, None, dict]:
        descriptions: list[TaskDescription] = []
        # Interleaved submission, largest configuration first within
        # each round: the 164-rank task occupies the machine at the
        # start (Fig 8) and the mix stays heterogeneous throughout.
        for i in range(experiment.instances_per_config):
            for ranks in sorted(experiment.rank_configs, reverse=True):
                td = openfoam_task_description(
                    ranks,
                    params=experiment.params,
                    name=f"openfoam-{ranks}r-{i}",
                )
                if deployment.enabled:
                    td = deployment.wrap_with_tau(td)
                descriptions.append(td)
        tasks = client.submit_tasks(descriptions)
        yield from client.wait_tasks(tasks)
        return {
            "by_ranks": {
                ranks: [
                    t
                    for t in tasks
                    if t.description.metadata.get("ranks") == ranks
                ]
                for ranks in experiment.rank_configs
            }
        }

    return run_workflow(
        workload,
        nodes=experiment.compute_nodes,
        agent_nodes=experiment.agent_nodes,
        soma_config=experiment.soma_config(),
        seed=seed,
        drain_seconds=HARDWARE_FREQUENCY + 5.0,
    )


def execution_times_by_ranks(result: WorkflowResult) -> dict[int, list[float]]:
    """Fig 4 data: per-configuration task execution times."""
    out: dict[int, list[float]] = {}
    for ranks, tasks in result.payload["by_ranks"].items():
        out[ranks] = [
            t.execution_time for t in tasks if t.execution_time is not None
        ]
    return out


def execution_times_by_spread(
    result: WorkflowResult, ranks: int
) -> dict[int, list[float]]:
    """Fig 6 data: execution time grouped by number of nodes used."""
    out: dict[int, list[float]] = {}
    for task in result.payload["by_ranks"][ranks]:
        if task.execution_time is None:
            continue
        out.setdefault(len(task.nodelist), []).append(task.execution_time)
    return dict(sorted(out.items()))
