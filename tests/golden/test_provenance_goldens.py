"""Golden snapshots for ``python -m repro why`` output.

One adaptive DDMD run at seed 7 backs the snapshots: the rendered
why-chains of a deterministic late task and of the run, and the
critical-path edge table.  Every id a run mints comes from its own environment, so the
rendering depends only on (experiment, seed), never on what ran before
it in the process — any drift in ``data/`` is a real change to either
the builder's edge wiring or the renderers.

Regenerate deliberately with ``REPRO_UPDATE_GOLDENS=1``.
"""

from __future__ import annotations

import pytest

from repro.provenance import (
    critical_path,
    render_critical_path,
    render_why,
    resolve_target,
    validate_graph,
    why_chain,
)

from tests.golden.helpers import check_golden
from tests.provenance.test_builder import build_adaptive_graph


@pytest.fixture(scope="module")
def adaptive_graph():
    _result, graph = build_adaptive_graph()
    assert validate_graph(graph) == []
    return graph


def test_why_task_golden(adaptive_graph):
    graph = adaptive_graph
    target_uid = sorted(graph.task_events)[-1]
    target = resolve_target(graph, target_uid)
    chain = why_chain(graph, target)
    check_golden(
        "why_ddmd_adaptive_seed7.txt",
        render_why(graph, target, chain, top=12) + "\n",
    )


def test_why_run_golden(adaptive_graph):
    graph = adaptive_graph
    target = resolve_target(graph, "run")
    chain = why_chain(graph, target)
    check_golden(
        "why_run_ddmd_adaptive_seed7.txt",
        render_why(graph, target, chain, top=12) + "\n",
    )


def test_critical_path_table_golden(adaptive_graph):
    graph = adaptive_graph
    path = critical_path(graph)
    check_golden(
        "critical_path_ddmd_adaptive_seed7.txt",
        render_critical_path(graph, path, top=10) + "\n",
    )
