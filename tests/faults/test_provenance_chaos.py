"""Chaos regression: the why-chain names the injected fault windows.

A sharded deployment runs a fixed-duration task while the fault plan
takes shard ``s00`` down and drops RPCs with a stall.  The provenance
graph built from that run must still validate, surface both plan
windows as fault events, annotate the edges that overlap them, and —
the point of the exercise — render a ``why`` chain for the degraded
task that names the injected windows.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.provenance import (
    build_graph,
    chain_components,
    render_why,
    resolve_target,
    validate_graph,
    why_chain,
)
from repro.rp import FixedDurationModel, TaskDescription
from repro.sim import observability
from repro.soma import HARDWARE, WORKFLOW, SomaConfig

from tests.faults.harness import arm, boot

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
    monitors=("proc",),
    monitoring_frequency=5.0,
    retry=RETRY,
    shards=2,
)

OUTAGE_AT = 8.0
OUTAGE_FOR = 15.0
DROP_AT = 10.0
DROP_FOR = 10.0


def build_chaos_graph():
    """Run the outage + rpc_drop scenario and build its provenance graph."""
    with observability(telemetry=True, provenance=True):
        session, client, _box = boot(nodes=2, seed=3, soma=SOMA)
    env = session.env
    plan = (
        FaultPlan()
        .shard_outage(OUTAGE_AT, "s00", duration=OUTAGE_FOR)
        .rpc_drop(DROP_AT, probability=0.9, duration=DROP_FOR, stall=2.0)
    )
    injector = arm(session, plan)

    def main(env):
        tasks = client.submit_tasks(
            [TaskDescription(name="work", model=FixedDurationModel(35.0))]
        )
        yield from client.wait_tasks(tasks)
        yield env.timeout(20.0)

    env.run(env.process(main(env)))
    client.close()
    return build_graph(hub=session.telemetry, plan=injector.plan)


@pytest.fixture(scope="module")
def chaos_graph():
    return build_chaos_graph()


def test_chaos_graph_still_validates(chaos_graph):
    violations = validate_graph(chaos_graph)
    assert violations == [], [v.format() for v in violations]


def test_plan_windows_surface_as_fault_events(chaos_graph):
    starts = {e.label: e.t for e in chaos_graph.by_kind("fault.start")}
    ends = {e.label: e.t for e in chaos_graph.by_kind("fault.end")}
    assert starts["fault:shard_outage"] == OUTAGE_AT
    assert ends["fault:shard_outage"] == OUTAGE_AT + OUTAGE_FOR
    assert starts["fault:rpc_drop"] == DROP_AT
    assert ends["fault:rpc_drop"] == DROP_AT + DROP_FOR


def test_overlapping_edges_carry_fault_annotations(chaos_graph):
    annotated = [e for e in chaos_graph.edges if e.attrs.get("faults")]
    assert annotated, "no edges annotated despite two fault windows"
    kinds = {
        ann.split("@", 1)[0] for e in annotated for ann in e.attrs["faults"]
    }
    assert kinds == {"shard_outage", "rpc_drop"}
    for edge in annotated:
        # Only positive-duration edges overlapping a window qualify.
        assert edge.duration > 0.0
        assert edge.t_src < max(OUTAGE_AT + OUTAGE_FOR, DROP_AT + DROP_FOR)


def test_why_chain_for_degraded_task_names_the_windows(chaos_graph):
    uid = sorted(chaos_graph.task_events)[-1]
    target = resolve_target(chaos_graph, uid)
    assert target is not None
    chain = why_chain(chaos_graph, target)
    assert any(e.attrs.get("faults") for e in chain)
    rendered = render_why(chaos_graph, target, chain, top=8)
    assert "!! during" in rendered
    assert "shard_outage@[" in rendered
    assert "rpc_drop@[" in rendered
    # The chain still walks across component boundaries under chaos.
    assert len(chain_components(chaos_graph, chain)) >= 2
