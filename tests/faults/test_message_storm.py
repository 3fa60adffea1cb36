"""Chaos scenario: a message storm (drop + duplicate + delay).

For a 30-second window a quarter of RPC messages are lost, a fifth of
requests are delivered twice, and a third are delayed.  The retry
policies must ride it out: the workflow completes, monitoring keeps
flowing (with retries and possibly drops), duplicates do not corrupt
the stores beyond duplicated records, and the whole storm is
deterministic.
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
    max_attempts=4,
    base_delay=0.2,
    multiplier=2.0,
    max_delay=2.0,
    jitter=0.1,
    deadline=20.0,
    timeout=5.0,
)

SOMA = SomaConfig(
    namespaces=(WORKFLOW, HARDWARE),
    monitors=("proc", "rp"),
    monitoring_frequency=2.0,
    retry=RETRY,
)

STORM_AT = 5.0
STORM_LENGTH = 30.0


def _plan(t0):
    return (
        FaultPlan()
        .rpc_drop(
            at=t0 + STORM_AT,
            probability=0.25,
            duration=STORM_LENGTH,
            stall=2.0,
        )
        .rpc_duplicate(
            at=t0 + STORM_AT, probability=0.2, duration=STORM_LENGTH
        )
        .rpc_delay(
            at=t0 + STORM_AT,
            probability=0.3,
            delay=0.5,
            duration=STORM_LENGTH,
        )
    )


def _run(seed):
    session, client, box = boot(nodes=2, seed=seed, soma=SOMA)
    env = session.env
    t0 = env.now
    injector = arm(session, _plan(t0))

    def main(env):
        tasks = client.submit_tasks(
            [TaskDescription(name="work", model=FixedDurationModel(45.0))]
        )
        yield from client.wait_tasks(tasks)
        yield env.timeout(15.0)
        return tasks

    tasks = env.run(env.process(main(env)))
    client.close()
    return session, box, injector, t0, tasks


def test_storm_completes_cleanly():
    session, box, injector, t0, tasks = _run(seed=41)
    gate = injector.message_faults

    assert all(t.state == TaskState.DONE for t in tasks)
    # The storm really happened and really ended.
    assert gate.decided > 0
    assert (
        gate.dropped_requests
        + gate.dropped_responses
        + gate.duplicated
        + gate.delayed
    ) > 0
    assert not gate.active

    # Clients absorbed it through retries; nothing deadlocked (the run
    # returned) and publishing continued after the window closed.
    deployment = box["deployment"]
    clients = [
        m.client
        for m in deployment.hw_monitor_models()
        if m.client is not None
    ]
    storm_end = t0 + STORM_AT + STORM_LENGTH
    for namespace in (WORKFLOW, HARDWARE):
        store = deployment.store(namespace)
        records = store.records()
        assert [r for r in records if r.time > storm_end]
        # Each record carries the size its client computed once at
        # publish; drops, duplicates and retries never mutate the tree.
        for r in records:
            assert type(r.nbytes) is int and r.nbytes == r.data.nbytes()
        assert store.total_bytes == sum(r.nbytes for r in records)
    if gate.dropped_requests + gate.dropped_responses > 0:
        total_retries = sum(c.retries for c in clients)
        rpmon = deployment.rp_monitor_model
        if rpmon is not None and rpmon.client is not None:
            total_retries += rpmon.client.retries
        assert total_retries > 0


def test_storm_is_deterministic():
    a = _run(seed=41)
    b = _run(seed=41)
    assert trace_signature(a[0]) == trace_signature(b[0])
    assert metric_signature(a[1]["deployment"]) == metric_signature(
        b[1]["deployment"]
    )
    # Gate counters are part of the replayed state too.
    ga, gb = a[2].message_faults, b[2].message_faults
    assert (ga.decided, ga.dropped_requests, ga.dropped_responses) == (
        gb.decided,
        gb.dropped_requests,
        gb.dropped_responses,
    )
    assert (ga.duplicated, ga.delayed) == (gb.duplicated, gb.delayed)
