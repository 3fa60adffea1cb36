"""Golden digests of two whole provenance graphs.

The why/critical-path goldens only see the edges a walk visits; these
pin every event, every edge and every event's in-edge order, so a
change to the graph's storage must rebuild the same graph bit for bit:

* adaptive DDMD at seed 7 (the builder battery's run);
* the shard-outage + ``rpc_drop`` chaos run, whose edges carry
  ``faults`` annotations.

Each golden holds the per-kind counts and one sha256 over the events in
id order, the edges in creation order and each event's in-edges as
``(src, kind)`` pairs.  Edge attrs other than ``faults`` and an event's
``open: False`` are left out: they repeat what the graph already holds.
An RPC event's ref is its request's message uid, which the run's own
environment mints, so the digest does not depend on which runs came
first in the process; the cross-run test pins that.

Regenerate deliberately with ``REPRO_UPDATE_GOLDENS=1``.
"""

from __future__ import annotations

import hashlib

import pytest

from tests.faults.test_provenance_chaos import build_chaos_graph
from tests.golden.helpers import check_golden
from tests.provenance.test_builder import build_adaptive_graph


def _event_attrs(attrs) -> list:
    return sorted(
        (key, value)
        for key, value in attrs.items()
        if not (key == "open" and value is False)
    )


def graph_digest(graph) -> str:
    """Counts plus one sha256 over events, edges and in-edge order."""
    digest = hashlib.sha256()
    for e in graph.events:
        row = (e.kind, repr(e.t), e.label, e.ref, e.component, _event_attrs(e.attrs))
        digest.update(f"{row!r}\n".encode())
    for e in graph.edges:
        row = (e.src, e.dst, e.kind, repr(e.t_src), repr(e.t_dst), e.attrs.get("faults"))
        digest.update(f"{row!r}\n".encode())
    for eid in range(len(graph.events)):
        row = [(e.src, e.kind) for e in graph.in_edges(eid)]
        digest.update(f"{row!r}\n".encode())
    lines = [f"events {len(graph.events)}"]
    lines += [f"  {kind} {n}" for kind, n in graph.event_counts().items()]
    lines.append(f"edges {len(graph.edges)}")
    lines += [f"  {kind} {n}" for kind, n in graph.edge_counts().items()]
    lines.append(f"sha256 {digest.hexdigest()}")
    return "\n".join(lines) + "\n"


def test_adaptive_ddmd_graph_digest():
    _result, graph = build_adaptive_graph()
    check_golden("graph_digest_ddmd_adaptive_seed7.txt", graph_digest(graph))


def test_graph_digest_ignores_earlier_runs_in_the_process():
    from repro.experiments import (
        TUNING,
        run_ddmd_experiment,
        run_openfoam_experiment,
        tuning_experiment,
    )

    run_openfoam_experiment(TUNING, seed=3)
    run_ddmd_experiment(tuning_experiment(), seed=3)
    _result, graph = build_adaptive_graph()
    check_golden("graph_digest_ddmd_adaptive_seed7.txt", graph_digest(graph))


@pytest.mark.slow
def test_chaos_graph_digest():
    check_golden("graph_digest_chaos_outage_rpc_drop.txt", graph_digest(build_chaos_graph()))
