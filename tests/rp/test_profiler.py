"""Profile store: append/read, lock contention, read cap, and the
transition log's rows behind it."""

import gc
import tracemalloc

import pytest

from repro.rp import (
    EXECUTING_EVENTS,
    ProfileRecord,
    ProfileStore,
    Task,
    TaskDescription,
    TaskState,
    TransitionLog,
)
from repro.sim import Environment, Tracer


def make_store(env, **kwargs):
    return ProfileStore(env, TransitionLog(Tracer(env)), **kwargs)


def rec(store, t, uid="task.000000", event="state", state="NEW"):
    """A row of the store's log, as a hand-built profile line."""
    return store.log.append(t, uid, event, state, "")


class TestBasics:
    def test_append_and_snapshot(self, env):
        store = make_store(env)
        store.append(rec(store, 0.0))
        store.append(rec(store, 1.0, event="launch_start"))
        assert len(store) == 2
        assert [r.event for r in store.snapshot()] == ["state", "launch_start"]

    def test_trace_shape(self):
        uid = "task.000000"
        state = ProfileRecord(1.0, uid, "state", "DONE", "cn0001")
        event = ProfileRecord(1.0, uid, "launch_start", "AGENT_EXECUTING", "")
        bare = ProfileRecord(1.0, uid, "state", "CANCELED", None)
        assert (state.category, state.name) == ("rp.state", uid)
        assert (event.category, event.name) == ("rp.event", uid)
        assert list(state.data.items()) == [("state", "DONE"), ("node", "cn0001")]
        assert list(event.data.items()) == [("event", "launch_start"), ("node", "")]
        assert bare.data == {"state": "CANCELED"}
        assert state.data is not state.data

    def test_read_since_cursor(self, env):
        store = make_store(env, read_time_base=0.0, read_time_per_record=0.0)
        for i in range(5):
            store.append(rec(store, float(i)))

        def reader(env):
            records, cursor = yield from store.read_since(0)
            assert len(records) == 5
            store.append(rec(store, 99.0))
            more, cursor = yield from store.read_since(cursor)
            return [r.time for r in more]

        assert env.run(env.process(reader(env))) == [99.0]


class TestTiming:
    def test_read_time_scales_with_records(self, env):
        store = make_store(
            env, read_time_base=0.0, read_time_per_record=0.01
        )
        for i in range(100):
            store.append(rec(store, float(i)))

        def reader(env):
            yield from store.read_since(0)
            return env.now

        assert env.run(env.process(reader(env))) == pytest.approx(1.0)

    def test_read_cap_bounds_time(self, env):
        store = make_store(
            env,
            read_time_base=0.0,
            read_time_per_record=0.01,
            read_max_records=10,
        )
        for i in range(100):
            store.append(rec(store, float(i)))

        def reader(env):
            records, _ = yield from store.read_since(0)
            return env.now, len(records)

        t, n = env.run(env.process(reader(env)))
        assert t == pytest.approx(0.1)  # capped at 10 records
        assert n == 100  # but all records are returned

    def test_writer_blocks_behind_reader(self, env):
        store = make_store(
            env,
            read_time_base=1.0,
            read_time_per_record=0.0,
            write_time=0.0,
        )
        store.append(rec(store, 0.0))
        log = []

        def reader(env):
            yield from store.read_since(0)
            log.append(("read_done", env.now))

        def writer(env):
            yield env.timeout(0.1)
            yield from store.write_locked(rec(store, 5.0))
            log.append(("write_done", env.now))

        env.process(reader(env))
        env.process(writer(env))
        env.run()
        times = dict(log)
        assert times["read_done"] == pytest.approx(1.0)
        # Writer had to wait for the reader's lock hold.
        assert times["write_done"] >= 1.0

    def test_write_locked_pays_write_time(self, env):
        store = make_store(env, write_time=0.25)

        def writer(env):
            yield from store.write_locked(rec(store, 0.0))
            return env.now

        assert env.run(env.process(writer(env))) == pytest.approx(0.25)
        assert store.writes == 1


def live_records():
    return sum(1 for obj in gc.get_objects() if type(obj) is ProfileRecord)


class TestReads:
    def test_a_read_builds_only_what_its_reader_takes(self, env):
        store = make_store(env)
        for i in range(1000):
            store.append(rec(store, float(i), uid=f"task.{i:06d}"))
        before = live_records()

        def reader(env):
            records, cursor = yield from store.read_since(0)
            return records, cursor

        records, cursor = env.run(env.process(reader(env)))
        # The same simulated hold as a read that copied every record.
        assert env.now == store.read_time_base + 1000 * store.read_time_per_record
        assert cursor == len(records) == 1000
        assert live_records() == before  # nothing built until indexed
        store.append(rec(store, 1000.0))
        assert len(records) == 1000  # fixed at the read
        tail = records[600:]
        assert live_records() == before + 400  # only the slice's records
        assert [r.time for r in tail] == [float(i) for i in range(600, 1000)]
        # Past 256 tasks the task codes take four bytes; they read back.
        assert [r.entity for r in tail] == [f"task.{i:06d}" for i in range(600, 1000)]


#: One task's transitions, as the executor and the client make them.
PATH = [
    TaskState.TMGR_SCHEDULING,
    TaskState.TMGR_STAGING_INPUT,
    TaskState.AGENT_SCHEDULING_PENDING,
    TaskState.AGENT_SCHEDULING,
    TaskState.AGENT_EXECUTING_PENDING,
    TaskState.AGENT_EXECUTING,
    *EXECUTING_EVENTS,
    TaskState.AGENT_STAGING_OUTPUT,
    TaskState.DONE,
]


def test_transition_memory_floor():
    """A task transition retains at most 40 B with its history, profile
    store and trace entries.

    As a frozen ``ProfileRecord`` with its own time float, held by three
    lists, it retained 122 B here on Python 3.11; as a row it retains
    about 29 B: about 15 B of columns, a 4 B row id in the task's
    history and one in the store, a byte of the trace's order, and the
    history arrays' growth.
    """
    env = Environment(sanitize=False)
    tracer = Tracer(env)
    log = TransitionLog(tracer)
    store = ProfileStore(env, log)
    tasks = [
        Task(env, f"task.{i:06d}", TaskDescription(name="t"), log) for i in range(715)
    ]
    nodes = [f"cn{k:04d}" for k in range(64)]

    def transitions():
        for i, task in enumerate(tasks):
            for step in PATH:
                yield env.timeout(1e-3)  # each transition at its own time
                if step in EXECUTING_EVENTS:
                    row = task.record_event(step, nodes[i % 64])
                else:
                    row = task.advance(step, nodes[i % 64])
                store.append(row)

    process = env.process(transitions())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        env.run(process)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    count = len(tasks) * len(PATH)
    assert count >= 10_000
    assert len(store) == len(tracer) == count
    assert all(len(task.events) == len(PATH) + 1 for task in tasks)
    assert retained / count <= 40
