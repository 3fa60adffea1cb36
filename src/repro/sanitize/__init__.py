"""Determinism and lifecycle tooling for the DES stack.

Two halves of one guarantee:

* :mod:`repro.sanitize.simlint` — static analysis (``python -m repro
  lint``): rules on the CFG/dataflow engine in
  :mod:`repro.sanitize.flow` that flag wall-clock, random, entropy, and
  ordering values reaching the kernel (interprocedural determinism
  taint), interrupt swallowing, and event/resource lifecycle bugs
  before they run.
* :mod:`repro.sim.sanitizer` — runtime sanitizers
  (``Environment(sanitize=True)`` or ``REPRO_SANITIZE=1``): event-leak,
  deadlock, resource-leak, and shared-dict race detection riding the
  kernel's counter hooks.  Re-exported here so tooling has one import
  point.

See DESIGN.md §3c for the rule table and the mapping from determinism
to the paper's measurement-validity argument.
"""

from ..sim.sanitizer import (
    KernelSanitizer,
    SanitizerError,
    SanitizerFinding,
    SharedDict,
    drain_spontaneous_findings,
)
from .flow import (
    build_cfg,
    build_program,
    compute_summaries,
    flow_findings,
    solve_forward,
)
from .simlint import RULES, Finding, Report, Rule, lint_paths, lint_source

__all__ = [
    "RULES",
    "Rule",
    "Finding",
    "Report",
    "lint_source",
    "lint_paths",
    "build_cfg",
    "solve_forward",
    "build_program",
    "compute_summaries",
    "flow_findings",
    "KernelSanitizer",
    "SanitizerError",
    "SanitizerFinding",
    "SharedDict",
    "drain_spontaneous_findings",
]
