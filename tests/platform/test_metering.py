"""Step integrators."""

import pytest

from repro.platform.metering import StepIntegrator


class TestStepIntegrator:
    def test_integral_of_constant(self, env):
        meter = StepIntegrator(env)
        meter.add(3.0)
        env.run(until=10)
        assert meter.integral == pytest.approx(30.0)

    def test_integral_of_steps(self, env):
        meter = StepIntegrator(env)
        meter.add(2)            # t=0: 2
        env.run(until=5)
        meter.add(3)            # t=5: 5
        env.run(until=10)
        meter.add(-5)           # t=10: 0
        env.run(until=20)
        assert meter.integral == pytest.approx(2 * 5 + 5 * 5)

    def test_set_value(self, env):
        meter = StepIntegrator(env)
        meter.set(7.0)
        env.run(until=4)
        assert meter.integral == pytest.approx(28.0)
        assert meter.value == 7.0

