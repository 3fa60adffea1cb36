"""Harness behaviours: drain, baseline, node accounting, payloads."""

import pytest

from repro.experiments import run_workflow
from repro.rp import FixedDurationModel, TaskDescription
from repro.soma import HARDWARE, SomaConfig, WORKFLOW


def simple_workload(n=2, duration=5.0):
    def workload(client, deployment):
        tasks = client.submit_tasks(
            [
                TaskDescription(
                    name=f"t{i}", model=FixedDurationModel(duration)
                )
                for i in range(n)
            ]
        )
        yield from client.wait_tasks(tasks)
        return {"tasks": tasks}

    return workload


def test_baseline_has_no_monitors():
    result = run_workflow(simple_workload(), nodes=1, soma_config=None)
    assert not result.deployment.enabled
    assert result.deployment.hw_monitor_tasks == []
    # Only the application tasks exist.
    assert len(result.tasks) == 2


def test_drain_extends_finish_but_not_makespan():
    config = SomaConfig(
        namespaces=(WORKFLOW, HARDWARE),
        monitors=("proc",),
        monitoring_frequency=10.0,
    )
    no_drain = run_workflow(
        simple_workload(), nodes=1, soma_config=config, drain_seconds=0.0
    )
    drained = run_workflow(
        simple_workload(), nodes=1, soma_config=config, drain_seconds=30.0
    )
    assert drained.finished_at > no_drain.finished_at
    assert drained.makespan == pytest.approx(no_drain.makespan, rel=0.05)


def test_node_roles_accounted():
    config = SomaConfig(
        namespaces=(WORKFLOW, HARDWARE), monitors=("proc",)
    )
    result = run_workflow(
        simple_workload(),
        nodes=2,
        agent_nodes=1,
        service_nodes=1,
        soma_config=config,
    )
    pilot = result.client.pilot
    assert len(pilot.agent_nodes) == 1
    assert len(pilot.service_nodes) == 1
    assert len(pilot.compute_nodes) == 2
    # The cluster was sized to fit the whole pilot.
    assert len(result.session.cluster.nodes) == 4


def test_payload_passthrough():
    result = run_workflow(simple_workload(n=3), nodes=1, soma_config=None)
    assert len(result.payload["tasks"]) == 3
    assert len(result.application_tasks) == 3
    assert [
        t for t in result.tasks.values() if t.description.name.startswith("t1")
    ]


def test_makespan_measured_from_pilot_active():
    result = run_workflow(
        simple_workload(n=1, duration=7.0), nodes=1, soma_config=None
    )
    # Makespan excludes queue+bootstrap, includes task round trip.
    assert 7.0 < result.makespan < 20.0
    assert result.finished_at > result.makespan
