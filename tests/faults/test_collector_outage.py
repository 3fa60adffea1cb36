"""Chaos scenario: the SOMA collector goes down, then restarts.

During the outage clients retry with backoff, then degrade: samples are
dropped (never blocking the host), an observability gap opens, and no
records land in any namespace store.  After the restart publishing
resumes, the gap is recorded, and the clients' health counters surface
in the published trees.
"""

import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.rp import FixedDurationModel, TaskDescription, TaskState
from repro.soma import HARDWARE, SomaConfig, WORKFLOW

from tests.faults.harness import (
    arm,
    boot,
    metric_signature,
    trace_signature,
)

pytestmark = pytest.mark.slow

RETRY = RetryPolicy(
    max_attempts=3,
    base_delay=0.25,
    multiplier=2.0,
    max_delay=2.0,
    jitter=0.1,
    deadline=5.0,
    timeout=2.0,
)

SOMA = SomaConfig(
    namespaces=(WORKFLOW, HARDWARE),
    monitors=("proc", "rp"),
    monitoring_frequency=5.0,
    retry=RETRY,
)

OUTAGE_DELAY = 8.0
OUTAGE_LENGTH = 15.0


def _run(seed):
    session, client, box = boot(nodes=2, seed=seed, soma=SOMA)
    env = session.env
    t0 = env.now
    injector = arm(
        session,
        FaultPlan().service_outage(
            at=t0 + OUTAGE_DELAY, duration=OUTAGE_LENGTH
        ),
    )

    def main(env):
        tasks = client.submit_tasks(
            [TaskDescription(name="work", model=FixedDurationModel(35.0))]
        )
        yield from client.wait_tasks(tasks)
        yield env.timeout(20.0)
        return tasks

    tasks = env.run(env.process(main(env)))
    box["alive_after_restart"] = all(
        server.alive
        for server in box["deployment"].service_model.servers.values()
    )
    client.close()
    return session, box, injector, t0, tasks


def test_outage_degrades_without_stalling_tasks():
    session, box, injector, t0, tasks = _run(seed=3)
    deployment = box["deployment"]
    assert all(t.state == TaskState.DONE for t in tasks)

    down_at = t0 + OUTAGE_DELAY
    up_at = down_at + OUTAGE_LENGTH
    # The namespace servers were really down: nothing stored in the
    # window, but records exist on both sides of it.
    for namespace in (WORKFLOW, HARDWARE):
        records = deployment.store(namespace).records()
        assert not [r for r in records if down_at < r.time < up_at]
        assert [r for r in records if r.time >= up_at]

    # Clients retried, then dropped, then recovered: gaps were recorded.
    models = list(deployment.hw_monitor_models())
    clients = [m.client for m in models if m.client is not None]
    assert clients
    assert any(c.retries > 0 for c in clients)
    assert any(c.dropped > 0 for c in clients)
    assert any(c.gaps >= 1 for c in clients)
    assert all(not c.open_gaps for c in clients)
    assert session.tracer.count("soma.gap") >= 1
    assert session.tracer.count("soma.publish_failed") >= 1


def test_outage_health_counters_reach_the_store():
    session, box, injector, t0, tasks = _run(seed=3)
    deployment = box["deployment"]
    store = deployment.store(HARDWARE)
    up_at = t0 + OUTAGE_DELAY + OUTAGE_LENGTH
    post = [r for r in store.records() if r.time >= up_at]
    assert any(
        f"SOMA/health/{r.source}/dropped" in r.data
        and r.data[f"SOMA/health/{r.source}/dropped"] > 0
        for r in post
    )


def test_outage_restart_is_planned_not_manual():
    session, box, injector, t0, tasks = _run(seed=3)
    kinds = [event.kind for _t, event in injector.applied]
    assert kinds == ["service_outage"]
    assert session.tracer.count("fault.inject") == 1
    assert session.tracer.count("fault.restore") == 1
    # Every namespace server was back up before the run's own teardown.
    assert box["alive_after_restart"]


def test_outage_scenario_is_deterministic():
    a = _run(seed=29)
    b = _run(seed=29)
    assert trace_signature(a[0]) == trace_signature(b[0])
    assert metric_signature(a[1]["deployment"]) == metric_signature(
        b[1]["deployment"]
    )


def _down_during_outage(shards, plan_for):
    """Keys of the SOMA servers down mid-window; all must be back after."""
    soma = SomaConfig(
        namespaces=(WORKFLOW, HARDWARE), monitors=(), shards=shards
    )
    session, client, box = boot(nodes=2, seed=3, soma=soma)
    servers = box["deployment"].service_model.servers
    env = session.env
    t0 = env.now
    arm(session, plan_for(t0))
    env.run(until=t0 + 2.0)
    down = sorted(key for key, server in servers.items() if not server.alive)
    env.run(until=t0 + 7.0)
    assert all(server.alive for server in servers.values())
    client.close()
    return down


@pytest.mark.parametrize(
    "shards, namespaces, expected",
    [
        (0, None, ["hardware", "workflow"]),
        (0, (WORKFLOW,), ["workflow"]),
        (2, None, ["s00.hardware", "s00.workflow", "s01.hardware", "s01.workflow"]),
        (2, (WORKFLOW,), ["s00.workflow", "s01.workflow"]),
    ],
)
def test_outage_hits_its_namespaces_on_every_instance(shards, namespaces, expected):
    down = _down_during_outage(
        shards,
        lambda t0: FaultPlan().service_outage(
            t0 + 1.0, duration=5.0, namespaces=namespaces
        ),
    )
    assert down == expected


def test_shard_outage_stays_on_its_shard():
    down = _down_during_outage(
        2,
        lambda t0: FaultPlan().shard_outage(
            t0 + 1.0, "s01", duration=5.0, namespaces=(WORKFLOW,)
        ),
    )
    assert down == ["s01.workflow"]
