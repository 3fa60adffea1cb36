"""Unit battery for the ProvGraph structure, queries, and validators.

Synthetic-graph tests pin the algorithms (topo order, reachability,
most-constraining walk, telescoping attribution) on graphs small enough
to verify by hand; the validator tests build deliberately broken graphs
and assert each invariant trips on exactly its own failure mode.
"""

from __future__ import annotations

import pytest

from repro.provenance import (
    EDGE_KINDS,
    EVENT_KINDS,
    ProvGraph,
    assert_valid,
    attribution_total,
    chain_components,
    critical_path,
    edge_attribution,
    last_constraint,
    render_critical_path,
    render_why,
    resolve_target,
    validate_graph,
    why_chain,
)
from repro.provenance.query import KIND_PRIORITY


def diamond() -> ProvGraph:
    """root -> (a | b) -> join -> end, with b the slower branch."""
    g = ProvGraph()
    g.root = g.add_event("run.start", 0.0, "run", component="run")
    a = g.add_event("span.start", 1.0, "fast", component="left")
    b = g.add_event("span.start", 5.0, "slow", component="right")
    join = g.add_event("span.end", 6.0, "join", component="right")
    g.end = g.add_event("run.end", 10.0, "run", component="run")
    g.add_edge(g.root, a, "run")
    g.add_edge(g.root, b, "run")
    g.add_edge(a, join, "join")
    g.add_edge(b, join, "span")
    g.add_edge(join, g.end, "run")
    return g


def test_event_and_edge_bookkeeping():
    g = diamond()
    assert len(g) == 5
    assert [e.eid for e in g.events] == [0, 1, 2, 3, 4]
    assert g.event(3).label == "join"
    assert len(g.in_edges(3)) == 2
    assert len(g.out_edges(g.root)) == 2
    assert g.event_counts() == {
        "run.end": 1,
        "run.start": 1,
        "span.end": 1,
        "span.start": 2,
    }
    assert g.edge_counts() == {"join": 1, "run": 3, "span": 1}
    assert sorted(e.label for e in g.by_kind("span.start")) == ["fast", "slow"]


def test_topo_order_and_reachability():
    g = diamond()
    order = g.topo_order()
    assert order is not None
    position = {eid: i for i, eid in enumerate(order)}
    for edge in g.edges:
        assert position[edge.src] < position[edge.dst]
    assert g.reachable_from(g.root) == {0, 1, 2, 3, 4}
    assert g.reachable_from(1) == {1, 3, 4}


def test_cycle_detected():
    g = diamond()
    g.add_edge(g.end, g.root, "run")  # close the loop
    assert g.topo_order() is None
    rules = {v.rule for v in validate_graph(g)}
    assert "acyclic" in rules
    assert "happens-before" in rules  # the back edge also runs backward


def test_last_constraint_prefers_latest_then_kind():
    g = diamond()
    join = g.event(3)
    # b (t=5) is later than a (t=1): b's edge is the constraint.
    edge = last_constraint(g, join)
    assert edge is not None and edge.src == 2
    # Tie at the same source time: the higher-priority kind wins.
    g2 = ProvGraph()
    g2.root = g2.add_event("run.start", 0.0, "run")
    x = g2.add_event("store.write", 3.0, "w")
    y = g2.add_event("span.start", 3.0, "s")
    tgt = g2.add_event("store.read", 4.0, "r")
    g2.add_edge(g2.root, x, "run")
    g2.add_edge(g2.root, y, "run")
    g2.add_edge(y, tgt, "program")
    g2.add_edge(x, tgt, "wait-on-store")
    winner = last_constraint(g2, tgt)
    assert winner is not None and winner.kind == "wait-on-store"
    assert KIND_PRIORITY["wait-on-store"] > KIND_PRIORITY["program"]


def test_why_chain_telescopes_to_makespan():
    g = diamond()
    chain = why_chain(g, g.end)
    assert chain[0].dst == g.end.eid
    assert chain[-1].src == g.root.eid
    assert attribution_total(list(reversed(chain))) == pytest.approx(
        g.end.t - g.root.t
    )
    path = critical_path(g)
    assert [e.kind for e in path] == ["run", "span", "run"]
    shares = edge_attribution(path)
    assert sum(shares.values()) == pytest.approx(10.0)
    assert list(shares) == ["run", "span"]  # sorted by share, largest first


def test_renderers_are_plain_text():
    g = diamond()
    chain = why_chain(g, g.end)
    out = render_why(g, g.end, chain, top=10)
    assert out.startswith("why run (t=10.00")
    assert "components crossed: right" in out
    table = render_critical_path(g, critical_path(g))
    assert "critical path: 3 edge(s), 10.00s attributed of 10.00s" in table
    assert "span" in table and "share" in table


def test_render_why_elides_quiet_hops():
    g = ProvGraph()
    g.root = g.add_event("run.start", 0.0, "run")
    prev = g.root
    for i in range(40):
        nxt = g.add_event("span.start", float(i + 1), f"hop{i}")
        g.add_edge(prev, nxt, "program")
        prev = nxt
    g.end = g.add_event("run.end", 100.0, "run")
    g.add_edge(prev, g.end, "run")
    chain = why_chain(g, g.end)
    out = render_why(g, g.end, chain, top=3)
    assert "quiet hop(s)" in out
    # 3 kept + elision markers + header/footer: far fewer than 41 hops.
    assert len(out.splitlines()) < 15


def test_chain_components_excludes_run_track():
    g = diamond()
    comps = chain_components(g, why_chain(g, g.end))
    assert comps == ["right"]


def test_resolve_target_forms():
    g = ProvGraph()
    g.root = g.add_event("run.start", 0.0, "run")
    first = g.append_span(12, 1.0, 4.0, "rp-client:task:task.000007")
    s, e = g.event(first), g.event(first + 1)
    g.end = g.add_event("run.end", 5.0, "run")
    g.add_edge(g.root, s, "run")
    g.add_edge(e, g.end, "run")
    g.task_events["task.000007"] = (s, e)
    assert g.span_events[12] == (s, e)
    assert (s.ref, e.ref, s.kind, e.kind) == ("12", "12", "span.start", "span.end")
    assert resolve_target(g, "run") is g.end
    assert resolve_target(g, "task.000007") is e
    assert resolve_target(g, "12") == e
    assert resolve_target(g, "task:task.0000") == e
    assert resolve_target(g, "no-such-thing") is None


def test_append_span_keeps_rising_ids_with_gaps():
    g = ProvGraph()
    ids = (3, 7, 20)
    starts = [g.append_span(i, float(i), i + 1.0, f"c:s{i}", "c") for i in ids]
    last = g.append_span(21, 5.0, 9.0, "c:open", "c", still_open=True)
    assert list(g.span_events) == [*ids, 21]
    for span_id, start in zip(ids, starts):
        assert g.span_events[span_id] == (g.event(start), g.event(start + 1))
        assert g.event(start + 1).ref == str(span_id)
    assert (dict(g.event(last).attrs), dict(g.event(last + 1).attrs)) == ({}, {"open": True})
    for missing in (0, 4, 19, 22):
        assert missing not in g.span_events
    for bad in (21, 19, -1):
        with pytest.raises(ValueError):
            g.append_span(bad, 0.0, 1.0, "c:late")
    assert (len(g), len(g.span_events), g.edge_counts()) == (8, 4, {"span": 4})


def test_validators_pass_on_well_formed_graph():
    g = diamond()
    assert validate_graph(g) == []
    assert_valid(g)


def test_happens_before_violation_detected():
    g = diamond()
    late = g.add_event("span.start", 9.0, "late")
    early = g.add_event("span.end", 2.0, "early")
    g.add_edge(g.root, late, "run")
    g.add_edge(late, early, "program")  # runs backward in time
    g.add_edge(early, g.end, "run")
    violations = validate_graph(g)
    assert [v.rule for v in violations] == ["happens-before"]
    assert "1 edge(s) run backward" in violations[0].detail
    with pytest.raises(ValueError, match="happens-before"):
        assert_valid(g)


def test_orphan_and_multi_root_detected():
    g = diamond()
    g.add_event("span.start", 2.0, "orphan")
    rules = [v.rule for v in validate_graph(g)]
    assert "single-root" in rules
    assert "reachable" in rules


def test_unreachable_task_reported_by_uid():
    g = diamond()
    s = g.add_event("span.start", 1.0, "task:task.000042")
    e = g.add_event("span.end", 2.0, "task:task.000042")
    g.add_edge(s, e, "span")
    g.task_events["task.000042"] = (s, e)
    details = [v.detail for v in validate_graph(g) if v.rule == "reachable"]
    assert any("task.000042" in d for d in details)


def test_violations_mirror_into_sanitizer_registry():
    from repro.sim.sanitizer import drain_spontaneous_findings

    from repro.provenance import report_violations

    g = diamond()
    g.add_event("span.start", 2.0, "orphan")
    violations = validate_graph(g)
    drain_spontaneous_findings()
    report_violations(g, violations)
    findings = drain_spontaneous_findings()
    assert {f.kind for f in findings} == {
        f"provenance-{v.rule}" for v in violations
    }
    assert all(f.time == g.end.t for f in findings)


def test_kind_tables_cover_priorities():
    # Every edge kind the builder can emit has a walk priority, and the
    # taxonomy tuples stay deduplicated (DESIGN.md is generated from them).
    assert set(KIND_PRIORITY) == set(EDGE_KINDS)
    assert len(set(EDGE_KINDS)) == len(EDGE_KINDS)
    assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)
