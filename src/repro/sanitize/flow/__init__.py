"""Flow-sensitive static analysis: CFG, dataflow solver, taint, rules.

The package lowers Python functions to control-flow graphs with
``yield`` as a first-class scheduling-point node, runs worklist
dataflow over them, and composes per-function summaries into
interprocedural determinism-taint analysis.  The SL100+ lint family in
:mod:`.rules` is built on this core and run by every
:mod:`repro.sanitize.simlint` lint.
"""

from .cfg import CFG, Node, build_cfg, stmt_has_yield
from .rules import flow_findings
from .solver import solve_forward
from .summaries import FunctionInfo, Program, build_program, compute_summaries
from .taint import FunctionTaint, Summary, Taint

__all__ = [
    "CFG",
    "Node",
    "build_cfg",
    "stmt_has_yield",
    "solve_forward",
    "FunctionInfo",
    "Program",
    "build_program",
    "compute_summaries",
    "FunctionTaint",
    "Summary",
    "Taint",
    "flow_findings",
]
