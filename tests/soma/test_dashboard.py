"""The text dashboard over all four namespaces."""

import pytest

from repro.experiments import OVERLOAD, TUNING, run_openfoam_experiment
from repro.soma import no_soma, render_dashboard
from repro.rp import Session
from repro.platform import summit_like


@pytest.fixture(scope="module")
def monitored_run():
    return run_openfoam_experiment(TUNING, seed=11)


def test_dashboard_renders_all_configured_namespaces(monitored_run):
    text = render_dashboard(monitored_run.deployment)
    assert "SOMA dashboard" in text
    assert "workflow namespace" in text
    assert "hardware namespace" in text
    assert "performance namespace" in text


def test_dashboard_workflow_counts(monitored_run):
    text = render_dashboard(monitored_run.deployment)
    assert "done=4" in text.replace("  ", " ").replace("done= 4", "done=4")


def test_dashboard_host_cap():
    # Ten compute nodes publish hardware samples; the panel lists eight.
    text = render_dashboard(run_openfoam_experiment(OVERLOAD, seed=11).deployment)
    assert "... 2 more nodes" in text


def test_dashboard_baseline_run():
    session = Session(cluster_spec=summit_like(2))
    assert "not deployed" in render_dashboard(no_soma(session))
