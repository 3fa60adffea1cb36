"""Kernel semantics: events, timeouts, processes, interrupts, run()."""

import pytest

from repro.sim import Interrupt, SimulationError


class TestEnvironmentBasics:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_step_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_run_until_number_advances_clock(self, env):
        env.run(until=50.0)
        assert env.now == 50.0

    def test_run_until_past_raises(self, env):
        env.run(until=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_run_until_nan_raises(self, env):
        with pytest.raises(ValueError):
            env.run(until=float("nan"))


class TestTimeout:
    def test_timeout_fires_at_right_time(self, env):
        log = []

        def proc(env):
            yield env.timeout(5)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [5.0]

    def test_timeout_value_passthrough(self, env):
        def proc(env):
            value = yield env.timeout(1, value="hello")
            return value

        assert env.run(env.process(proc(env))) == "hello"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_nan_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(float("nan"))

    def test_zero_delay_allowed(self, env):
        def proc(env):
            yield env.timeout(0)
            return env.now

        assert env.run(env.process(proc(env))) == 0.0

    def test_timeouts_fire_in_order(self, env):
        log = []

        def waiter(env, delay):
            yield env.timeout(delay)
            log.append(delay)

        for d in (3, 1, 2):
            env.process(waiter(env, d))
        env.run()
        assert log == [1, 2, 3]

    def test_simultaneous_timeouts_fifo(self, env):
        log = []

        def waiter(env, tag):
            yield env.timeout(1)
            log.append(tag)

        for tag in "abc":
            env.process(waiter(env, tag))
        env.run()
        assert log == ["a", "b", "c"]


class TestEvents:
    def test_event_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_event_double_trigger_raises(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_event_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_failed_event_raises_in_waiter(self, env):
        event = env.event()

        def proc(env):
            try:
                yield event
            except ValueError as exc:
                return str(exc)

        p = env.process(proc(env))
        event.fail(ValueError("boom"))
        assert env.run(p) == "boom"

    def test_unhandled_failed_event_crashes_run(self, env):
        event = env.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failed_event_is_silent(self, env):
        event = env.event()
        event.fail(RuntimeError("quiet"))
        event.defuse()
        env.run()  # no raise

    def test_waiting_on_processed_event_resumes_immediately(self, env):
        event = env.event()
        event.succeed("cached")
        env.run()  # processes the event

        def proc(env):
            value = yield event
            return (env.now, value)

        assert env.run(env.process(proc(env))) == (0.0, "cached")


class TestProcess:
    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 42

        assert env.run(env.process(proc(env))) == 42

    def test_process_is_alive(self, env):
        def proc(env):
            yield env.timeout(10)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_yield_non_event_raises(self, env):
        def proc(env):
            yield 42

        with pytest.raises(SimulationError):
            env.run(env.process(proc(env)))

    def test_process_exception_propagates_to_run(self, env):
        def proc(env):
            yield env.timeout(1)
            raise KeyError("inside")

        env.process(proc(env))
        with pytest.raises(KeyError):
            env.run()

    def test_waiting_process_as_event(self, env):
        def inner(env):
            yield env.timeout(2)
            return "inner-done"

        def outer(env):
            value = yield env.process(inner(env))
            return value

        assert env.run(env.process(outer(env))) == "inner-done"

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as exc:
                return ("interrupted", env.now, exc.cause)

        def killer(env, victim):
            yield env.timeout(3)
            victim.interrupt("reason")

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        assert env.run(victim) == ("interrupted", 3.0, "reason")

    def test_interrupt_dead_process_raises(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(5)
            return env.now

        def killer(env, victim):
            yield env.timeout(2)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        assert env.run(victim) == 7.0

    def test_self_interrupt_rejected(self, env):
        def proc(env):
            with pytest.raises(SimulationError):
                env.active_process.interrupt()
            yield env.timeout(0)

        env.run(env.process(proc(env)))


class TestRunUntilEvent:
    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(4)
            return "val"

        p = env.process(proc(env))
        assert env.run(until=p) == "val"
        assert env.now == 4.0

    def test_run_until_untriggerable_event_raises(self, env):
        dead = env.event()
        with pytest.raises(SimulationError):
            env.run(until=dead)

    def test_run_until_already_processed_event(self, env):
        event = env.event()
        event.succeed(7)
        env.run()
        assert env.run(until=event) == 7
