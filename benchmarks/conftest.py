"""Shared infrastructure for the per-table / per-figure benchmarks.

Each bench consumes one or more **sweep cells** from the default
matrix (:func:`repro.sweep.default_matrix`) — the same declarative
(experiment × seed × config) grid ``python -m repro sweep``
parallelizes — and renders its table/series through the shared
renderers in :mod:`repro.sweep.artifacts`.  That single source of
truth is what makes a sweep regeneration byte-identical to a bench
run.

Cell payloads are cached per pytest session, so figure benches that
share a run (e.g. Figs 4/6/8 all read the overloaded OpenFOAM cell)
do not re-simulate it.  Results are written to ``benchmarks/results/``
through the sweep cache's atomic temp-file + rename helper, so an
interrupted bench never leaves a truncated artifact behind.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Set REPRO_FULL_SCALE=1 to run Scaling B up to 512 nodes (minutes);
#: the default covers 64 and 128 nodes.
FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "0") == "1"

_cache: dict[str, object] = {}


def cached(key: str, factory):
    """Compute-once cache shared by all benches in one pytest run."""
    if key not in _cache:
        _cache[key] = factory()
    return _cache[key]


def cell_payload(key: str) -> dict:
    """Run (once per session) one cell of the default sweep matrix."""

    def factory():
        from repro.sweep import default_matrix
        from repro.sweep.cells import run_cell

        matrix, _ = default_matrix()
        cell = matrix[key]
        return run_cell(cell.family, cell.params, cell.seed)

    return cached(f"cell:{key}", factory)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir):
    """Write (atomically) and echo a rendered report for one artifact."""
    from repro.sweep import atomic_write_text

    def _write(name: str, text: str) -> str:
        path = atomic_write_text(results_dir / f"{name}.txt", text + "\n")
        print(f"\n{text}\n[written to {path}]")
        return text

    return _write
