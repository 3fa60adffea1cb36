"""Shared fixtures for the telemetry battery.

``traced_ddmd`` runs the DDMD tuning experiment once per session with
telemetry on and hands out the (result, hub) pair — the experiment
exercises every instrumented component (EnTK, RP client/agent, SOMA
client/service, monitors), so one run backs all export/analysis
assertions.
"""

from __future__ import annotations

import pytest

from repro.sim import observability

TRACED_SEED = 7


@pytest.fixture(scope="session")
def traced_ddmd():
    from repro.experiments import run_ddmd_experiment, tuning_experiment

    with observability(telemetry=True) as hubs:
        result = run_ddmd_experiment(tuning_experiment(), seed=TRACED_SEED)
    assert len(hubs) == 1, "one Session => one telemetry hub"
    return result, hubs[0]
