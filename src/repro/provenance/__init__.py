"""repro.provenance — the whole-run happens-before + dataflow graph.

Telemetry (PR 5) gives one causal span tree per task; this package
stitches those trees, plus the cross-task interactions the capture
layer observes (store reads/writes, RPC request/response pairs, raptor
dispatch, scheduler grants), into one run-wide event DAG.  On top of it:
``python -m repro why <task>`` prints root-cause chains, the critical-
path analysis attributes end-to-end makespan to typed *edges* rather
than spans, and the validators assert graph invariants the same way the
runtime sanitizers do.

Capture rides the telemetry hub under the identical zero-perturbation
contract — host-memory bookkeeping off ``env.now`` only — enforced
differentially in ``tests/telemetry/test_zero_perturbation.py``.
"""

from .builder import ProvenanceCapture, build_graph
from .critical_path import (
    attribution_total,
    critical_path,
    edge_attribution,
    render_critical_path,
)
from .graph import EDGE_KINDS, EVENT_KINDS, ProvEdge, ProvEvent, ProvGraph
from .query import (
    chain_components,
    last_constraint,
    render_why,
    resolve_target,
    why_chain,
)
from .validate import (
    GraphViolation,
    assert_valid,
    report_violations,
    validate_graph,
)

__all__ = [
    "EDGE_KINDS",
    "EVENT_KINDS",
    "GraphViolation",
    "ProvEdge",
    "ProvEvent",
    "ProvGraph",
    "ProvenanceCapture",
    "assert_valid",
    "attribution_total",
    "build_graph",
    "chain_components",
    "critical_path",
    "edge_attribution",
    "last_constraint",
    "render_critical_path",
    "render_why",
    "report_violations",
    "resolve_target",
    "validate_graph",
    "why_chain",
]
