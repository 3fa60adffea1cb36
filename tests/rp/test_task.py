"""Task entity: event history, durations, state machine enforcement."""

import pytest

from repro.rp import (
    InvalidTransition,
    Task,
    TaskDescription,
    TaskMode,
    TaskState,
    TransitionLog,
)
from repro.sim import Tracer


@pytest.fixture
def task(env):
    return Task(env, "task.000000", TaskDescription(name="t"), TransitionLog(Tracer(env)))


class TestAdvance:
    def test_initial_state(self, task):
        assert task.state == TaskState.NEW
        assert not task.is_final

    def test_advance_records_event(self, env, task):
        env.run(until=5)
        task.advance(TaskState.TMGR_SCHEDULING)
        assert task.state == TaskState.TMGR_SCHEDULING
        assert task.time_of(TaskState.TMGR_SCHEDULING) == 5.0

    def test_illegal_transition_raises(self, task):
        task.advance(TaskState.AGENT_SCHEDULING)
        with pytest.raises(InvalidTransition):
            task.advance(TaskState.TMGR_SCHEDULING)

    def test_final_state_fires_completed(self, env, task):
        task.advance(TaskState.DONE)
        assert task.completed.triggered
        assert task.finished_at == env.now
        assert task.is_final

    def test_advance_after_final_raises(self, task):
        task.advance(TaskState.DONE)
        with pytest.raises(InvalidTransition):
            task.advance(TaskState.FAILED)

    def test_started_at_set_on_executing(self, env, task):
        env.run(until=3)
        task.advance(TaskState.AGENT_EXECUTING)
        assert task.time_of(TaskState.AGENT_EXECUTING) == 3.0


class TestEventHistory:
    def test_record_event(self, env, task):
        env.run(until=2)
        task.record_event("launch_start")
        assert task.time_of("launch_start") == 2.0

    def test_duration_between_events(self, env, task):
        task.record_event("launch_start")
        env.run(until=7)
        task.record_event("launch_stop")
        assert task.execution_time == pytest.approx(7.0)

    def test_duration_missing_event_is_none(self, task):
        assert task.duration("launch_start", "launch_stop") is None


class TestClassification:
    def test_application_task(self, task):
        assert task.is_application
        assert task.description.mode != TaskMode.SERVICE

    def test_service_task(self, env):
        td = TaskDescription(name="svc", mode=TaskMode.SERVICE)
        t = Task(env, "task.000001", td, TransitionLog(Tracer(env)))
        assert t.description.mode == TaskMode.SERVICE and not t.is_application

    def test_monitor_task(self, env):
        td = TaskDescription(name="mon", mode=TaskMode.MONITOR)
        t = Task(env, "task.000002", td, TransitionLog(Tracer(env)))
        assert t.description.mode == TaskMode.MONITOR and not t.is_application


class TestDescriptionValidation:
    def test_zero_ranks_rejected(self, env):
        with pytest.raises(ValueError):
            Task(env, "t", TaskDescription(ranks=0), TransitionLog(Tracer(env)))

    def test_negative_gpus_rejected(self, env):
        with pytest.raises(ValueError):
            Task(env, "t", TaskDescription(gpus_per_rank=-1), TransitionLog(Tracer(env)))

    def test_bad_mode_rejected(self, env):
        with pytest.raises(ValueError):
            Task(env, "t", TaskDescription(mode="weird"), TransitionLog(Tracer(env)))

    def test_totals(self):
        td = TaskDescription(ranks=4, cores_per_rank=3, gpus_per_rank=1)
        assert td.total_cores == 12
        assert td.total_gpus == 4
