"""Agent updater: a profile write that cannot land in time is dropped.

The state transition is applied and traced first; only the profile
line is at stake.  Under the default retry policy (3 attempts, 0.05 s
then 0.1 s backoff, 5 s deadline) the write is dropped either when the
profile I/O lock stays held past the deadline or when the profile store
refuses every attempt.
"""

import pytest

from repro.platform import summit_like
from repro.rp import RPConfig, Session, Task, TaskDescription, TaskState
from repro.rp.agent.updater import Updater


def make_stack(**config):
    session = Session(cluster_spec=summit_like(1), config=RPConfig(**config))
    task = Task(
        session.env, "task.000000", TaskDescription(name="t"), session.transitions
    )
    return session, Updater(session), task


def times(session, category):
    return [r.time for r in session.tracer.select(category=category)]


def test_write_dropped_when_lock_held_past_deadline():
    # An RP-monitor read that holds the profile I/O lock from t = 0 to
    # t = 10: the profile store is empty, so the hold is the base cost.
    session, updater, task = make_stack(profile_read_base=10.0)
    env = session.env
    profiles = session.profiles

    def reader():
        yield from profiles.read_since(0)

    def transition():
        yield env.timeout(1.0)
        yield from updater.advance(task, TaskState.TMGR_SCHEDULING)

    env.process(reader())
    env.process(transition())
    env.run()

    assert task.state == TaskState.TMGR_SCHEDULING
    assert times(session, "rp.state") == [1.0]
    assert times(session, "rp.profile_drop") == [6.0]
    assert updater.dropped_records == 1
    assert len(profiles) == 0


def test_write_dropped_after_retries_during_store_outage():
    session, updater, task = make_stack()
    env = session.env
    profiles = session.profiles
    profiles.set_available(False)

    env.process(updater.advance(task, TaskState.TMGR_SCHEDULING))
    env.run()

    assert task.state == TaskState.TMGR_SCHEDULING
    assert profiles.rejected == 3
    assert times(session, "rp.profile_drop") == [pytest.approx(0.15)]
    assert updater.dropped_records == 1
    assert len(profiles) == 0


def test_persisted_record_is_the_task_history_record():
    session, updater, task = make_stack()
    env = session.env

    def transitions():
        yield from updater.advance(task, TaskState.TMGR_SCHEDULING, node="cn0001")
        assert task.rows[-1] == session.profiles.rows[-1]
        assert task.events[-1] == session.profiles.snapshot()[-1]
        yield from updater.record_event(task, "launch_start", node="cn0001")
        assert task.rows[-1] == session.profiles.rows[-1]
        assert task.events[-1] == session.profiles.snapshot()[-1]

    env.run(env.process(transitions()))
    assert len(session.profiles) == 2
    assert task.events[-2].state == TaskState.TMGR_SCHEDULING


def test_dropped_write_keeps_the_record_in_task_history_only():
    session, updater, task = make_stack()
    env = session.env
    session.profiles.set_available(False)

    env.process(updater.advance(task, TaskState.TMGR_SCHEDULING, node="cn0001"))
    env.run()

    assert updater.dropped_records == 1
    assert session.profiles.snapshot() == []
    record = task.events[-1]
    assert (record.entity, record.event, record.state, record.node) == (
        task.uid,
        "state",
        TaskState.TMGR_SCHEDULING,
        "cn0001",
    )
