"""Differential battery: heap vs calendar on full experiment runs.

The strongest equivalence evidence the repo can produce: the fig. 4
(OpenFOAM tuning) and Table-2 DDMD tuning scenarios, run end to end
under each event-queue backend with the same seed, must emit
byte-identical run digests — traces, stores, and kernel counters down
to the tombstone-skip count.  A sweep-cell run closes the loop at the
payload level, since cell payloads are what the cached sweep engine
digests.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    TUNING,
    run_ddmd_experiment,
    run_openfoam_experiment,
    tuning_experiment,
)
from repro.experiments.harness import run_cell
from repro.sim import set_default_event_queue

from tests.faults.harness import run_digest

SEEDS = (3, 17, 33)
BACKENDS = ("heap", "calendar")


@pytest.fixture
def backend_default():
    """Restore the process-wide backend default after each test."""
    previous = set_default_event_queue(None)
    yield set_default_event_queue
    set_default_event_queue(previous)


def _per_backend(backend_default, run):
    out = {}
    for backend in BACKENDS:
        backend_default(backend)
        result = run()
        assert result.session.env.event_queue_backend == backend
        out[backend] = run_digest(result)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_openfoam_digests_identical_across_backends(backend_default, seed):
    runs = _per_backend(
        backend_default, lambda: run_openfoam_experiment(TUNING, seed=seed)
    )
    assert runs["heap"] == runs["calendar"], f"run digest diverged for seed {seed}"


@pytest.mark.parametrize("seed", SEEDS)
def test_ddmd_digests_identical_across_backends(backend_default, seed):
    runs = _per_backend(
        backend_default,
        lambda: run_ddmd_experiment(tuning_experiment(), seed=seed),
    )
    assert runs["heap"] == runs["calendar"], f"run digest diverged for seed {seed}"


def test_sweep_cell_payload_parity(backend_default):
    # The sweep engine caches cells by payload digest; a backend must
    # never change what a cell computes.
    payloads = {}
    for backend in BACKENDS:
        backend_default(backend)
        payloads[backend] = run_cell(
            "openfoam", {"experiment": "tuning"}, seed=SEEDS[0]
        )
    assert payloads["heap"] == payloads["calendar"]
