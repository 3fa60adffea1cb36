"""Property-based tests for the run-provenance graph.

For randomly-shaped monitored bag-of-tasks runs — fault-free and under
Hypothesis-chosen chaos plans — the builder must always produce a graph
satisfying the structural invariants the validators pin:

* acyclic (a topological order exists);
* single-rooted at the run-start event;
* every task node reachable from the run root along forward edges;
* every edge respects happens-before (``src.t <= dst.t`` in sim time);

plus the analysis identity: the critical path's edge durations
telescope to exactly the end-to-end makespan.

The graph's columnar storage is checked against a naive reference
that keeps a plain list of edge ids per node.
Random interleavings of appends and queries (backward-in-time edges,
self-loops, cycles and orphans included) must give the same in/out
edges in the same order, the same Kahn order, the same reachable sets
and the same validator findings, word for word.
"""

from __future__ import annotations

from collections import Counter, deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import run_workflow
from repro.faults import FaultPlan
from repro.provenance import (
    EDGE_KINDS,
    ProvGraph,
    attribution_total,
    build_graph,
    critical_path,
    validate_graph,
)
from repro.sim import observability
from repro.soma import HARDWARE, WORKFLOW, SomaConfig
from repro.workloads import uniform_bag

MONITORING = SomaConfig(
    namespaces=(WORKFLOW, HARDWARE),
    monitors=("proc",),
    monitoring_frequency=30.0,
)


def _graph_for(seed, count, duration, plan=None):
    def workload(client, deployment):
        tasks = client.submit_tasks(uniform_bag(count, duration=duration))
        yield from client.wait_tasks(tasks)
        return {"done": len(tasks)}

    with observability(telemetry=True, provenance=True):
        result = run_workflow(
            workload,
            nodes=2,
            service_nodes=1,
            soma_config=MONITORING,
            seed=seed,
            fault_plan=plan,
        )
    return result, build_graph(result)


def _assert_invariants(result, graph):
    violations = validate_graph(graph)
    assert violations == [], [v.format() for v in violations]
    # The four invariants, restated directly (not just via the validator):
    for edge in graph.edges:
        assert edge.t_src <= edge.t_dst
    assert graph.topo_order() is not None
    rootless = [e for e in graph.events if not graph.in_edges(e)]
    assert rootless == [graph.root]
    reachable = graph.reachable_from(graph.root)
    for uid, (start, end) in graph.task_events.items():
        assert start.eid in reachable, uid
        assert end.eid in reachable, uid
    assert len(graph.task_events) == len(result.tasks)
    # Telescoping is algebraically exact; summing the per-edge
    # differences reintroduces float round-off, hence the tolerance.
    assert attribution_total(critical_path(graph)) == pytest.approx(
        graph.end.t - graph.root.t, rel=1e-9
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=12),
    duration=st.floats(min_value=1.0, max_value=300.0),
)
def test_fault_free_runs_build_valid_graphs(seed, count, duration):
    result, graph = _graph_for(seed, count, duration)
    _assert_invariants(result, graph)


def _chaos_plan(choice, at, window):
    plan = FaultPlan()
    if choice == "rpc_drop":
        return plan.rpc_drop(at, probability=0.5, duration=window, stall=2.0)
    if choice == "rpc_delay":
        return plan.rpc_delay(at, probability=0.5, delay=5.0, duration=window)
    if choice == "outage":
        return plan.service_outage(at, duration=window)
    return plan.rpc_duplicate(at, probability=0.5, duration=window)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=2, max_value=10),
    duration=st.floats(min_value=30.0, max_value=300.0),
    choice=st.sampled_from(("rpc_drop", "rpc_delay", "outage", "duplicate")),
    at=st.floats(min_value=0.0, max_value=120.0),
    window=st.floats(min_value=10.0, max_value=200.0),
)
def test_chaos_runs_build_valid_graphs(seed, count, duration, choice, at, window):
    result, graph = _graph_for(
        seed, count, duration, plan=_chaos_plan(choice, at, window)
    )
    _assert_invariants(result, graph)
    # The plan's windows surface as fault events bracketed by the run.
    fault_starts = list(graph.by_kind("fault.start"))
    fault_ends = list(graph.by_kind("fault.end"))
    assert len(fault_starts) == len(fault_ends)
    for event in fault_starts + fault_ends:
        assert 0.0 <= event.t <= graph.end.t


class ReferenceGraph:
    """Plain lists of lists: events, edges, and edge ids per node."""

    def __init__(self) -> None:
        self.events: list[tuple[str, float, str]] = []
        self.edges: list[tuple[int, int, str]] = []
        self.ins: list[list[int]] = []
        self.outs: list[list[int]] = []

    def add_event(self, kind, t, label):
        self.events.append((kind, t, label))
        self.ins.append([])
        self.outs.append([])

    def add_edge(self, src, dst, kind):
        self.outs[src].append(len(self.edges))
        self.ins[dst].append(len(self.edges))
        self.edges.append((src, dst, kind))

    def in_edges(self, eid):
        return [self.edges[i] for i in self.ins[eid]]

    def out_edges(self, eid):
        return [self.edges[i] for i in self.outs[eid]]

    def topo_order(self):
        indegree = [len(ins) for ins in self.ins]
        ready = deque(v for v, d in enumerate(indegree) if d == 0)
        order = []
        while ready:
            v = ready.popleft()
            order.append(v)
            for i in self.outs[v]:
                w = self.edges[i][1]
                indegree[w] -= 1
                if indegree[w] == 0:
                    ready.append(w)
        return order if len(order) == len(self.events) else None

    def reachable_from(self, start):
        seen = {start}
        frontier = deque((start,))
        while frontier:
            for i in self.outs[frontier.popleft()]:
                w = self.edges[i][1]
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    def violations(self, root, tasks):
        """(rule, detail) pairs, worded exactly as ``validate_graph``'s."""
        ev = self.events
        out = []
        bad = [e for e in self.edges if ev[e[0]][1] > ev[e[1]][1]]
        if bad:
            src, dst, kind = max(bad, key=lambda e: ev[e[0]][1] - ev[e[1]][1])
            out.append((
                "happens-before",
                f"{len(bad)} edge(s) run backward in sim time; worst: "
                f"{kind} {ev[src][2]} (t={ev[src][1]:g}) -> "
                f"{ev[dst][2]} (t={ev[dst][1]:g})",
            ))
        if self.topo_order() is None:
            out.append(("acyclic", "graph contains at least one cycle"))
        rootless = [v for v, ins in enumerate(self.ins) if not ins]
        if rootless != ([] if root is None else [root]):
            labels = ", ".join(ev[v][2] for v in rootless[:5]) or "(none)"
            out.append((
                "single-root",
                f"{len(rootless)} event(s) have no in-edges "
                f"(expected only the run root): {labels}",
            ))
        if root is not None:
            reachable = self.reachable_from(root)
            orphans = [v for v in range(len(ev)) if v not in reachable]
            if orphans:
                labels = ", ".join(ev[v][2] for v in orphans[:5])
                out.append((
                    "reachable",
                    f"{len(orphans)} event(s) unreachable from the run root: {labels}",
                ))
            lost = [uid for uid, v in sorted(tasks.items()) if v not in reachable]
            if lost:
                out.append((
                    "reachable",
                    f"{len(lost)} task node(s) unreachable from the run root: "
                    f"{', '.join(lost[:5])}",
                ))
        return out


#: Few distinct values, so times tie, edges run backward and strings repeat.
TIMES = st.sampled_from((0.0, 1.0, 2.5, 4.0, 7.25))
LABELS = st.sampled_from(("run", "a", "b", "task:t1", "program"))
NODE = st.integers(min_value=0, max_value=10**6)

graph_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("event"), st.sampled_from(("span.start", "span.end", "rpc.send")),
            TIMES, LABELS,
        ),
        st.tuples(st.just("edge"), NODE, NODE, st.sampled_from(EDGE_KINDS)),
        st.tuples(st.just("task"), NODE),
        st.tuples(
            st.just("query"),
            st.sampled_from(("in", "out", "topo", "reach", "validate")),
            NODE,
        ),
    ),
    max_size=60,
)


def _edge_rows(edges):
    return [(e.src, e.dst, e.kind, e.t_src, e.t_dst) for e in edges]


def _assert_query(graph, ref, what, node):
    times = [t for _kind, t, _label in ref.events]
    if what in ("in", "out"):
        got = graph.in_edges(node) if what == "in" else graph.out_edges(node)
        want = ref.in_edges(node) if what == "in" else ref.out_edges(node)
        assert _edge_rows(got) == [(s, d, k, times[s], times[d]) for s, d, k in want]
    elif what == "topo":
        assert graph.topo_order() == ref.topo_order()
    elif what == "reach":
        assert graph.reachable_from(node) == ref.reachable_from(node)
    else:
        tasks = {uid: start.eid for uid, (start, _end) in graph.task_events.items()}
        root = graph.root.eid if graph.root is not None else None
        got = [(v.rule, v.detail) for v in validate_graph(graph)]
        assert got == ref.violations(root, tasks)


@settings(max_examples=300, deadline=None)
@given(ops=graph_operations)
def test_columns_and_csr_match_naive_reference(ops):
    graph, ref = ProvGraph(), ReferenceGraph()
    for op in ops:
        n = len(ref.events)
        if op[0] == "event":
            _, kind, t, label = op
            event = graph.add_event(kind, t, label)
            ref.add_event(kind, t, label)
            if graph.root is None:
                graph.root = event
        elif n == 0:
            continue
        elif op[0] == "edge":
            _, src, dst, kind = op
            graph.add_edge(graph.event(src % n), dst % n, kind)
            ref.add_edge(src % n, dst % n, kind)
        elif op[0] == "task":
            start = graph.event(op[1] % n)
            graph.task_events[f"task.{op[1] % n}"] = (start, start)
        else:
            _assert_query(graph, ref, op[1], op[2] % n)
    # Every query once more on the final graph, for every node.
    for node in range(len(ref.events)):
        for what in ("in", "out", "reach"):
            _assert_query(graph, ref, what, node)
    _assert_query(graph, ref, "topo", 0)
    _assert_query(graph, ref, "validate", 0)
    assert len(graph.events) == len(ref.events)
    assert len(graph.edges) == len(ref.edges)
    assert [(e.kind, e.t, e.label) for e in graph.events] == ref.events
    assert [(e.src, e.dst, e.kind) for e in graph.edges] == ref.edges
    assert graph.event_counts() == dict(sorted(Counter(k for k, _t, _l in ref.events).items()))
    assert graph.edge_counts() == dict(sorted(Counter(k for _s, _d, k in ref.edges).items()))
