"""Golden snapshots: dashboard render, flame summary, span table.

Each snapshot is produced from a fully deterministic fixed-seed run,
so any drift is a real behaviour change — the diff in ``data/`` shows
exactly what the user-visible output did differently.
"""

from __future__ import annotations

import pytest

from repro.experiments import TUNING, run_openfoam_experiment
from repro.sim import observability
from repro.soma import render_dashboard
from repro.telemetry import flame_summary, render_span_table, top_critical_spans

from tests.golden.helpers import check_golden

SEED = 11


@pytest.fixture(scope="module")
def traced_openfoam():
    with observability(telemetry=True) as hubs:
        result = run_openfoam_experiment(TUNING, seed=SEED)
    return result, hubs[0]


def test_dashboard_render_golden(traced_openfoam):
    result, _hub = traced_openfoam
    check_golden(
        "dashboard_openfoam_tuning_seed11.txt",
        render_dashboard(result.deployment) + "\n",
    )


def test_flame_summary_golden(traced_openfoam):
    _result, hub = traced_openfoam
    check_golden(
        "flame_openfoam_tuning_seed11.txt",
        # The golden pins the header and the first 15 rows.
        "\n".join(flame_summary(hub).splitlines()[:3 + 15]) + "\n",
    )


def test_span_table_golden(traced_openfoam):
    _result, hub = traced_openfoam
    check_golden(
        "span_table_openfoam_tuning_seed11.txt",
        render_span_table(top_critical_spans(hub, k=12)) + "\n",
    )
