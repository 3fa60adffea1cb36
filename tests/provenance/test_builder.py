"""End-to-end builder battery: real runs in, valid typed graphs out.

One adaptive DDMD run (module fixture) backs the taxonomy and
acceptance assertions: the graph must validate, the critical path must
attribute exactly the end-to-end makespan, and a late task's why-chain
must cross the EnTK -> RP -> SOMA component boundary the way the paper's
Fig 4 walkthrough does.
"""

from __future__ import annotations

import pytest

from repro.provenance import (
    ProvenanceCapture,
    attribution_total,
    build_graph,
    chain_components,
    critical_path,
    render_critical_path,
    resolve_target,
    validate_graph,
    why_chain,
)
from repro.sim import observability, switches

SEED = 7


def build_adaptive_graph():
    """Run adaptive DDMD at ``SEED``; returns (result, graph)."""
    from repro.experiments import adaptive_experiment, run_ddmd_experiment

    with observability(telemetry=True, provenance=True):
        result = run_ddmd_experiment(
            adaptive_experiment(), seed=SEED, adaptive_analysis=True
        )
    return result, build_graph(result)


@pytest.fixture(scope="module")
def adaptive_graph():
    return build_adaptive_graph()


def test_default_toggle_round_trips():
    previous = switches().provenance
    with observability(provenance=True):
        assert switches().provenance is True
        with observability(provenance=False):
            assert switches().provenance is False
        assert switches().provenance is True
    assert switches().provenance is previous


def test_capture_rides_the_hub(adaptive_graph):
    result, _ = adaptive_graph
    capture = result.session.telemetry.provenance
    assert isinstance(capture, ProvenanceCapture)
    counters = capture.counters()
    assert counters["rpc_sends"] > 0
    assert counters["rpc_sends"] == counters["rpc_serves"]
    assert counters["store_writes"] > 0
    assert counters["store_reads"] > 0


def test_grants_come_from_the_tracer(adaptive_graph):
    result, graph = adaptive_graph
    grants = [e for e in graph.events if e.kind == "sched.grant"]
    assert len(grants) == len(result.tasks)
    # One grant per placement: the rp.alloc records of a task's grant
    # instant, one per node, merge into a single event.
    allocs = result.session.tracer.select(category="rp.alloc")
    assert {(e.ref, e.t) for e in grants} == {(r.name, r.time) for r in allocs}
    for event in grants:
        nodes = [
            r.get("node") for r in allocs if (r.name, r.time) == (event.ref, event.t)
        ]
        assert event.attrs["nodes"] == ",".join(nodes)


def test_disabled_tracer_is_rejected_with_a_capture():
    from repro.rp import Session

    with observability(telemetry=True, provenance=True):
        session = Session(trace=False)
    assert session.telemetry.provenance is not None
    with pytest.raises(ValueError, match="enabled tracer"):
        build_graph(hub=session.telemetry)
    # Without a capture there are no grants to read: the skeleton builds.
    session.telemetry.provenance = None
    assert len(build_graph(hub=session.telemetry).events) == 2  # run bounds


def test_graph_is_valid_and_complete(adaptive_graph):
    result, graph = adaptive_graph
    assert validate_graph(graph) == []
    assert len(graph.task_events) == len(result.tasks)
    # Every span contributed a start/end pair plus run boundary events.
    hub = result.session.telemetry
    assert len(graph.span_events) == len(hub.spans)


def test_edge_taxonomy_present(adaptive_graph):
    _, graph = adaptive_graph
    kinds = graph.edge_counts()
    for kind in (
        "run",
        "span",
        "program",
        "join",
        "rpc.wire",
        "rpc.queue",
        "wait-on-grant",
        "launch",
        "wait-on-store",
    ):
        assert kinds.get(kind, 0) > 0, f"no {kind!r} edges in a real run"


def test_critical_path_attributes_full_makespan(adaptive_graph):
    result, graph = adaptive_graph
    path = critical_path(graph)
    total = attribution_total(path)
    # The telescoping identity: attributed seconds == makespan, within
    # float round-off (the acceptance bound is 1%; this is far tighter).
    assert total == pytest.approx(result.finished_at, rel=1e-9)
    rendered = render_critical_path(graph, path)
    assert f"{total:.2f}s attributed" in rendered


def test_late_task_chain_crosses_three_components(adaptive_graph):
    _, graph = adaptive_graph
    last_uid = sorted(graph.task_events)[-1]
    target = resolve_target(graph, last_uid)
    chain = why_chain(graph, target)
    components = chain_components(graph, chain)
    assert len(components) >= 3, components
    assert "entk" in components
    assert "soma-service" in components
    assert any(c.startswith("rp-") for c in components)


def test_capture_closed_after_build(adaptive_graph):
    result, _ = adaptive_graph
    capture = result.session.telemetry.provenance
    assert capture.closed
    before = capture.counters()
    # Offline analysis reads after the graph is built must not append.
    from repro.soma.namespaces import HARDWARE

    result.deployment.store(HARDWARE).records()
    assert capture.counters() == before


def test_bare_hub_yields_span_skeleton(adaptive_graph):
    result, _ = adaptive_graph
    hub = result.session.telemetry
    # A hub that never had a capture attached still yields the span
    # skeleton (build_graph falls back to hub.provenance, so detach it).
    capture = hub.provenance
    hub.provenance = None
    try:
        skeleton = build_graph(result, close=False)
    finally:
        hub.provenance = capture
    assert validate_graph(skeleton) == []
    kinds = skeleton.edge_counts()
    assert kinds.get("span", 0) > 0
    assert "rpc.wire" not in kinds  # capture-derived edges need a capture


def test_raptor_edges_from_function_calls():
    from repro.platform import summit_like
    from repro.rp import Client, PilotDescription, Session
    from repro.rp.raptor import FunctionCall, RaptorMaster

    with observability(telemetry=True, provenance=True):
        session = Session(cluster_spec=summit_like(2), seed=3)
    client = Client(session)
    env = session.env

    def main(env):
        yield from client.submit_pilot(
            PilotDescription(nodes=1, agent_nodes=1)
        )
        master = RaptorMaster(env)
        client.submit_tasks([master.worker_description(cores=4)])
        yield env.timeout(5.0)
        calls = [FunctionCall(duration=1.0) for _ in range(4)]
        yield from master.map(calls)

    env.run(env.process(main(env)))
    hub = session.telemetry
    capture = hub.provenance
    assert capture is not None
    assert capture.counters()["raptor_submits"] == 4
    assert capture.counters()["raptor_dispatches"] == 4
    graph = build_graph(hub=hub, capture=capture)
    assert validate_graph(graph) == []
    kinds = graph.edge_counts()
    assert kinds.get("raptor.queue", 0) == 4
    assert kinds.get("raptor.dispatch", 0) > 0
