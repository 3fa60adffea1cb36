"""Step integrators and event counters."""

import pytest

from repro.platform.metering import EventCounter, StepIntegrator


class TestStepIntegrator:
    def test_integral_of_constant(self, env):
        meter = StepIntegrator(env, initial=3.0)
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


class TestEventCounter:
    def test_count(self, env):
        counter = EventCounter(env)
        for _ in range(5):
            counter.hit()
        assert counter.count == 5

    def test_rate_window(self, env):
        counter = EventCounter(env)
        counter.hit()
        env.run(until=100)
        counter.hit()
        counter.hit()
        assert counter.rate(window=10.0) == pytest.approx(0.2)

    def test_rate_zero_window(self, env):
        counter = EventCounter(env)
        assert counter.rate(0) == 0.0
