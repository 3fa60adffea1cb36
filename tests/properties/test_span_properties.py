"""Property-based tests for the span tree invariants.

Two layers: synthetic trees built from Hypothesis-generated nesting
programs (pure telemetry machinery, thousands of shapes), and real
chaos runs whose retried RPCs must still produce a well-formed forest.

Invariants pinned:

* every trace has exactly one root, and every task trace exactly one
  ``task:`` root;
* a closed child's interval is contained in its closed parent's;
* no span's parent_id dangles;
* span start times are monotone in span_id (ids mint in causal order);
* retried/chaos-torn RPC attempt spans close exactly once
  (``double_closes == 0``, no attempt span left open).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.telemetry import Telemetry


# -- synthetic nesting programs ---------------------------------------

# A program is a tree of (duration, children); each node becomes an
# activated span that sleeps, runs its children (some spawned as
# separate processes), then sleeps again.
nodes = st.recursive(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.booleans(),  # run this node in a spawned process?
        st.just([]),
    ),
    lambda leaf: st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.booleans(),
        st.lists(leaf, max_size=3),
    ),
    max_leaves=12,
)
programs = st.lists(nodes, min_size=1, max_size=3)


def _execute(env, tel, program):
    def run_node(node, index):
        duration, _spawn, children = node
        with tel.span(f"n{index}", component=f"c{index % 3}"):
            yield env.timeout(duration)
            yield from run_children(children)
            yield env.timeout(duration)

    def run_children(children):
        spawned = []
        for index, child in enumerate(children):
            if child[1]:
                spawned.append(env.process(run_node(child, index)))
            else:
                yield from run_node(child, index)
        for proc in spawned:
            yield proc

    def main():
        yield from run_children([(d, False, c) for d, _s, c in program])

    env.run(env.process(main()))


def _forest_invariants(tel):
    by_id = {span.span_id: span for span in tel.spans}
    roots_per_trace: dict[int, int] = {}
    for span in tel.spans:
        if span.parent_id is None:
            roots_per_trace[span.trace_id] = (
                roots_per_trace.get(span.trace_id, 0) + 1
            )
        else:
            parent = by_id.get(span.parent_id)
            assert parent is not None, "dangling parent_id"
            assert parent.trace_id == span.trace_id
            assert parent.start <= span.start
            if parent.end is not None and span.end is not None:
                assert span.end <= parent.end, "child escapes parent"
    for trace_id in {s.trace_id for s in tel.spans}:
        assert roots_per_trace.get(trace_id, 0) == 1, (
            f"trace {trace_id} must have exactly one root"
        )
    ids = [s.span_id for s in tel.spans]
    assert ids == sorted(ids)
    starts = [s.start for s in tel.spans]
    assert all(a <= b for a, b in zip(starts, starts[1:])), (
        "span ids must mint in causal (time) order"
    )


@given(program=programs)
@settings(max_examples=60, deadline=None)
def test_synthetic_trees_hold_invariants(program):
    env = Environment()
    tel = Telemetry(env, enabled=True)
    _execute(env, tel, program)
    assert tel.spans, "every program opens at least one span"
    assert tel.double_closes == 0
    assert tel.counters()["open_spans"] == 0
    assert tel.spans_started == tel.spans_closed == len(tel.spans)
    _forest_invariants(tel)


@given(program=programs)
@settings(max_examples=25, deadline=None)
def test_synthetic_trees_are_deterministic(program):
    def build():
        env = Environment()
        tel = Telemetry(env, enabled=True)
        _execute(env, tel, program)
        return [
            (s.span_id, s.parent_id, s.trace_id, s.name, s.start, s.end)
            for s in tel.spans
        ]

    assert build() == build()


# -- real runs under chaos --------------------------------------------


def _chaos_run(seed):
    from repro.faults import FaultPlan, RetryPolicy
    from repro.rp import FixedDurationModel, TaskDescription
    from repro.sim import observability
    from repro.soma import HARDWARE, SomaConfig, WORKFLOW

    from tests.faults.harness import arm, boot

    soma = SomaConfig(
        namespaces=(WORKFLOW, HARDWARE),
        monitors=("proc", "rp"),
        monitoring_frequency=2.0,
        retry=RetryPolicy(
            max_attempts=4,
            base_delay=0.2,
            multiplier=2.0,
            max_delay=2.0,
            jitter=0.1,
            deadline=20.0,
            timeout=5.0,
        ),
    )
    with observability(telemetry=True) as hubs:
        session, client, box = boot(nodes=2, seed=seed, soma=soma)
    env = session.env
    arm(
        session,
        FaultPlan()
        .rpc_drop(at=env.now + 4.0, probability=0.3, duration=25.0,
                  stall=2.0)
        .rpc_duplicate(at=env.now + 4.0, probability=0.2, duration=25.0),
    )

    def main(env):
        tasks = client.submit_tasks(
            [TaskDescription(name="work", model=FixedDurationModel(30.0))]
        )
        yield from client.wait_tasks(tasks)
        yield env.timeout(10.0)

    env.run(env.process(main(env)))
    client.close()
    (hub,) = hubs
    return session, box["deployment"], hub


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=5, deadline=None)
def test_chaos_rpc_attempt_spans_close_exactly_once(seed):
    _session, deployment, hub = _chaos_run(seed)
    assert hub.double_closes == 0
    attempts = [s for s in hub.spans if s.name.startswith("rpc.attempt:")]
    serves = [s for s in hub.spans if s.name.startswith("rpc.serve:")]
    assert attempts, "chaos run must issue RPCs"
    assert all(s.closed for s in attempts), "attempt spans must all close"
    assert all(s.closed for s in serves)
    # Every successful transport attempt shows as a span; retries and
    # chaos-torn attempts add more spans on top, never fewer.
    clients = deployment.session.soma_clients
    assert clients
    successful = sum(c._rpc.calls for c in clients)
    retried = sum(c._rpc.retries for c in clients)
    assert len(attempts) >= successful > 0
    if retried:
        assert len(attempts) > successful
    _forest_invariants_open_tolerant(hub)


def _forest_invariants_open_tolerant(tel):
    """Forest invariants minus the everything-closed assumption."""
    by_id = {span.span_id: span for span in tel.spans}
    roots: dict[int, int] = {}
    for span in tel.spans:
        if span.parent_id is None:
            roots[span.trace_id] = roots.get(span.trace_id, 0) + 1
        else:
            parent = by_id.get(span.parent_id)
            assert parent is not None, "dangling parent_id"
            assert parent.trace_id == span.trace_id
            assert parent.start <= span.start
    for trace_id in {s.trace_id for s in tel.spans}:
        assert roots.get(trace_id, 0) == 1
    ids = [s.span_id for s in tel.spans]
    assert ids == sorted(ids)
