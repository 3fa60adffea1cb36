"""Parallel sweep engine: sharded experiment runs over a result cache.

The paper's evaluation is a matrix of independent runs (experiment ×
seed × configuration).  :mod:`repro.sweep` shards that matrix over a
process pool and writes each completed cell, content-addressed on
``sha256(code, family, params, seed)``, into a result cache through
atomic temp-file + rename writes.  The cache is the one record of
finished cells: re-running a killed sweep recomputes only the cells
that have no record.

The headline invariant — **sharding must not change results** — is
pinned by ``tests/sweep/test_parity.py``: ``--jobs 1/2/4`` produce
byte-identical per-cell result digests and identical merged manifests.

Entry points::

    python -m repro sweep --jobs 4                 # all artifacts
    python -m repro sweep --jobs 2 --filter 'fig*' # just the figures
"""

from .artifacts import Artifact, default_matrix
from .cache import ResultCache, atomic_write_json, atomic_write_text
from .planner import ShardPlan, estimate_cost, plan_shards, schedule_order
from .runner import (
    SweepInterrupted,
    SweepRun,
    execute_cell,
    run_sweep,
)
from .spec import (
    CellSpec,
    SweepSpec,
    canonical_json,
    code_fingerprint,
    result_digest,
)

__all__ = [
    "Artifact",
    "CellSpec",
    "ResultCache",
    "ShardPlan",
    "SweepInterrupted",
    "SweepRun",
    "SweepSpec",
    "atomic_write_json",
    "atomic_write_text",
    "canonical_json",
    "code_fingerprint",
    "default_matrix",
    "estimate_cost",
    "execute_cell",
    "plan_shards",
    "result_digest",
    "run_sweep",
    "schedule_order",
]
