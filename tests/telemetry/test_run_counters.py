"""``run_counters``: one read of a finished run's counters."""

from __future__ import annotations

from repro.telemetry import run_counters


def test_run_counters_is_a_repeatable_read_of_the_run(traced_ddmd):
    result, _hub = traced_ddmd
    env = result.session.env
    kernel = env.kernel_counters()

    counters = run_counters(result)
    assert run_counters(result) == counters
    assert env.kernel_counters() == kernel
    assert list(counters) == sorted(counters)
    assert all(type(value) is float for value in counters.values())
    assert {
        name.removeprefix("kernel."): value
        for name, value in counters.items()
        if name.startswith("kernel.")
    } == kernel


def test_soma_client_counters_cover_every_client():
    # The TAU-plugin clients publish the performance namespace; every
    # publish any client made reaches the service.
    from repro.experiments import TUNING, run_openfoam_experiment

    counters = run_counters(run_openfoam_experiment(TUNING, seed=3))
    assert counters["soma.client.published"] == 262
    assert counters["soma.service.publishes"] == 262
