"""The zero-perturbation contract, enforced differentially.

Telemetry on must be invisible to the simulation: for the same seed,
the run digest (full event trace, every SOMA store record, every kernel
counter, makespan and finish time) is byte-identical with the span
machinery enabled and disabled.  Any
instrumentation that schedules an event, draws randomness, or perturbs
iteration order breaks one of these digests for some seed.
"""

from __future__ import annotations

from repro.experiments import (
    TUNING,
    run_ddmd_experiment,
    run_openfoam_experiment,
    tuning_experiment,
)
from repro.sim import observability
from repro.sweep.spec import result_digest

from tests.faults.harness import run_digest

SEEDS = (3, 17, 33)


def _differential(run, telemetry_expected_spans=True):
    with observability(telemetry=False) as hubs:
        baseline = run_digest(run())
    assert hubs == []
    with observability(telemetry=True) as hubs:
        traced = run_digest(run())
    assert len(hubs) == 1
    hub = hubs[0]
    if telemetry_expected_spans:
        assert hub.spans, "telemetry on must actually record spans"
        assert hub.double_closes == 0
    return baseline, traced


def test_openfoam_trace_is_byte_identical_per_seed():
    for seed in SEEDS:
        baseline, traced = _differential(
            lambda: run_openfoam_experiment(TUNING, seed=seed)
        )
        assert baseline == traced, f"run digest drifted (seed {seed})"


def test_ddmd_trace_is_byte_identical():
    baseline, traced = _differential(
        lambda: run_ddmd_experiment(tuning_experiment(), seed=3)
    )
    assert baseline == traced


def _provenance_differential(run):
    """Baseline (everything off) vs telemetry + provenance capture on.

    Returns the two run digests; they cover the SOMA stores too, so
    the provenance store taps must not change what lands in any
    namespace store, not just the trace.
    """
    with observability(telemetry=False, provenance=False) as hubs:
        baseline = run_digest(run())
    assert hubs == []
    with observability(telemetry=True, provenance=True) as hubs:
        captured = run_digest(run())
    assert len(hubs) == 1
    hub = hubs[0]
    assert hub.provenance is not None, "capture must ride the enabled hub"
    counters = hub.provenance.counters()
    assert sum(counters.values()) > 0, "capture must actually record notes"
    return baseline, captured


def test_openfoam_provenance_is_byte_identical_per_seed():
    for seed in SEEDS:
        baseline, captured = _provenance_differential(
            lambda: run_openfoam_experiment(TUNING, seed=seed)
        )
        assert baseline == captured, (
            f"provenance capture perturbed the run (seed {seed})"
        )


def test_ddmd_provenance_is_byte_identical_per_seed():
    for seed in SEEDS:
        baseline, captured = _provenance_differential(
            lambda: run_ddmd_experiment(tuning_experiment(), seed=seed)
        )
        assert baseline == captured, (
            f"provenance capture perturbed the run (seed {seed})"
        )


def test_sweep_cell_payload_digest_is_identical():
    """The sweep-visible result digest cannot depend on telemetry."""
    from repro.experiments.harness import run_cell

    with observability(telemetry=False):
        off = result_digest(run_cell("ddmd", {"preset": "tuning"}, 3))
    with observability(telemetry=True):
        on = result_digest(run_cell("ddmd", {"preset": "tuning"}, 3))
    assert off == on
