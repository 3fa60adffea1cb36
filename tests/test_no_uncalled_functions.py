"""Every function and method that ``src/`` defines has a caller.

A function that only tests call is API the simulation never uses: it is
read, kept and tested, and says nothing about a run.  This test parses
``src/``, ``examples/`` and ``benchmarks/`` and fails with ``file:line``
for each ``def`` in ``src/`` whose name is never loaded (``name`` or
``x.name``), nor named in a literal ``getattr``/``hasattr`` call,
anywhere in those trees.  ``benchmarks/`` counts because the e2e child
and the bench files drive ``src/``.  Strings in ``__all__``,
``from x import name`` re-exports and the tests do not count as calls.

Dunders are exempt, and so are the ``visit_<NodeType>`` methods of
``ast.NodeVisitor`` subclasses, which the visitor dispatches by name.
A def kept for a stated reason is in ``ALLOWED``; an entry that names
no def, or a def that now has a caller, fails the test too.

It is a floor, not the whole rule.  Like ``test_no_write_only_state``
and ``test_no_shared_counters`` it matches by name only, so an uncalled
method gets past it when anything loads another of the same name
(``run``, ``execute``, ``observe``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Mapping

from tests.source_index import REPO_ROOT, attribute_loads, modules, name_loads

CALLER_TREES = ("src", "examples", "benchmarks")

_CONDUIT = "Conduit's Node API: the paper's namespaces are Conduit trees"
_FAULT_PLAN = "fault-plan builder the chaos and determinism tests inject with"
_PROV_GRAPH = "ProvGraph construction and reads for hand-built graphs in the provenance tests"

#: ``path::qualname`` -> why the def stays although only tests call it.
ALLOWED: dict[str, str] = {
    # The paper's public API.
    "src/repro/conduit/node.py::Node.is_empty": _CONDUIT,
    "src/repro/conduit/node.py::Node.child_names": _CONDUIT,
    "src/repro/conduit/node.py::Node.from_dict": _CONDUIT,
    "src/repro/conduit/node.py::Node.from_json": (
        _CONDUIT + "; also the round-trip oracle of the model-based Conduit test"
    ),
    "src/repro/conduit/node.py::Node.num_leaves": _CONDUIT,
    "src/repro/soma/client.py::SomaClient.query": "the SOMA client stub's query call",
    # Checks and fault observables.
    "src/repro/sim/core.py::Environment.sanitize_check": (
        "teardown check of the runtime sanitizer"
    ),
    "src/repro/sim/core.py::Environment.sanitizer": (
        "handle on the attached runtime sanitizer, which its tests inspect"
    ),
    "src/repro/provenance/validate.py::assert_valid": (
        "the provenance graph's invariant check"
    ),
    "src/repro/platform/network.py::Network.partitioned": (
        "the chaos battery's heal observable (tests/faults/test_partition.py)"
    ),
    "src/repro/soma/client.py::SomaClient.open_gaps": (
        "the chaos battery's gap-closed observable (tests/faults/test_collector_outage.py)"
    ),
    "src/repro/platform/batch.py::BatchSystem.free_nodes": (
        "the observable of 'release and cancel return the nodes'"
    ),
    "src/repro/rp/raptor.py::RaptorMaster.num_workers": (
        "observable of the RAPTOR dispatch tests"
    ),
    "src/repro/rp/raptor.py::RaptorMaster.backlog": "observable of the RAPTOR dispatch tests",
    # Oracles that tests compare against.
    "src/repro/monitors/rp_monitor.py::summarize_profile": (
        "one-pass reference for ProfileFold's chunked folds"
    ),
    "src/repro/workloads/openfoam.py::OpenFOAMParams.ideal_time": (
        "analytic strong-scaling reference the rank-tuning tests compare with"
    ),
    # Construction and injection API for tests.
    "src/repro/faults/worker.py::WorkerFaultSpec.to_env": (
        "the pair of from_env, which the sweep worker reads"
    ),
    "src/repro/faults/plan.py::FaultPlan.node_crash": _FAULT_PLAN,
    "src/repro/faults/plan.py::FaultPlan.profile_outage": _FAULT_PLAN,
    "src/repro/provenance/graph.py::ProvGraph.add_event": _PROV_GRAPH,
    "src/repro/provenance/graph.py::ProvGraph.add_edge": _PROV_GRAPH,
    "src/repro/provenance/graph.py::ProvGraph.out_edges": _PROV_GRAPH,
    "src/repro/provenance/graph.py::ProvGraph.by_kind": _PROV_GRAPH,
    "src/repro/workloads/synthetic.py::uniform_bag": (
        "the scale lane's workload (tests/integration/test_fig11_scale.py)"
    ),
}


def _is_node_visitor(cls: ast.ClassDef, visitors: set[str]) -> bool:
    bases = {ast.unparse(base) for base in cls.bases}
    return bool(bases & ({"ast.NodeVisitor", "NodeVisitor"} | visitors))


def _defs(module: ast.AST) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Every def that needs a caller, as (qualname, node)."""
    visitors: set[str] = set()

    def walk(node: ast.AST, prefix: str, in_visitor: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                dunder = name.startswith("__") and name.endswith("__")
                dispatched = in_visitor and name.startswith("visit_")
                if not (dunder or dispatched):
                    yield prefix + name, child
                yield from walk(child, f"{prefix}{name}.<locals>.", False)
            elif isinstance(child, ast.ClassDef):
                visitor = _is_node_visitor(child, visitors)
                if visitor:
                    visitors.add(child.name)
                yield from walk(child, f"{prefix}{child.name}.", visitor)
            else:
                yield from walk(child, prefix, in_visitor)

    yield from walk(module, "", False)


def scan(root: Path, allowed: Mapping[str, str]) -> tuple[list[str], list[str]]:
    """(uncalled defs not in ``allowed``, stale ``allowed`` entries)."""
    loaded: set[str] = set()
    defs: list[tuple[str, str, int]] = []
    for tree in CALLER_TREES:
        for module in modules(root, tree):
            loaded |= attribute_loads(module.tree) | name_loads(module.tree)
            if tree == "src":
                defs.extend(
                    (f"{module.rel}::{q}", node.name, node.lineno)
                    for q, node in _defs(module.tree)
                )
    uncalled = {key: line for key, name, line in defs if name not in loaded}
    flagged = [
        f"{key.replace('::', f':{line}: ', 1)} has no caller outside the tests"
        for key, line in uncalled.items()
        if key not in allowed
    ]
    known = {key for key, _, _ in defs}
    stale = [
        f"{key}: allowed, but {'it has a caller' if key in known else 'no such def'}"
        for key in allowed
        if key not in uncalled
    ]
    return flagged, stale


def test_every_def_in_src_has_a_caller():
    flagged, stale = scan(REPO_ROOT, ALLOWED)
    assert not flagged, "defs only tests call:\n" + "\n".join(flagged)
    assert not stale, "stale allowlist entries:\n" + "\n".join(stale)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_scan_names_a_planted_uncalled_def_and_a_stale_entry(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "import ast\n"
        "__all__ = ['called', 'uncalled']\n"
        "def called():\n"
        "    pass\n"
        "def uncalled():\n"
        "    pass\n"
        "class Visitor(ast.NodeVisitor):\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def visit_Call(self, node):\n"
        "        pass\n"
    )
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("from .mod import uncalled\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from pkg.mod import called\ncalled()\n")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from pkg.mod import uncalled\nuncalled()\n")
    allowed = {"src/pkg/mod.py::gone": "deleted", "src/pkg/mod.py::called": "kept"}
    flagged, stale = scan(tmp_path, allowed)
    assert flagged == ["src/pkg/mod.py:5: uncalled has no caller outside the tests"]
    assert stale == [
        "src/pkg/mod.py::gone: allowed, but no such def",
        "src/pkg/mod.py::called: allowed, but it has a caller",
    ]
