"""A fault event refuses, at construction, any value it cannot apply."""

import pytest

from repro.faults import FaultPlan

NAN = float("nan")


@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda plan: plan.profile_outage(NAN), "time", id="nan-time"),
        pytest.param(
            lambda plan: plan.service_outage(5.0, duration=NAN),
            "duration",
            id="nan-duration",
        ),
        pytest.param(
            lambda plan: plan.node_slowdown(0.0, 0, factor=NAN, duration=5.0),
            "factor",
            id="nan-factor",
        ),
        pytest.param(
            lambda plan: plan.rpc_delay(0.0, 0.5, delay=-1.0),
            "delay",
            id="negative-delay",
        ),
        pytest.param(
            lambda plan: plan.rpc_delay(0.0, 0.5, delay=NAN), "delay", id="nan-delay"
        ),
        pytest.param(
            lambda plan: plan.tenant_flood(
                0.0, "s00", tenant="noisy", rate=NAN, duration=5.0
            ),
            "rate",
            id="nan-rate",
        ),
    ],
)
def test_fault_event_rejects_values_it_cannot_apply(build, field):
    with pytest.raises(ValueError, match=field):
        build(FaultPlan())
