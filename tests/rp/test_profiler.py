"""Profile store: append/read, lock contention, read cap."""

import pytest

from repro.rp import ProfileRecord, ProfileStore


def rec(t, uid="task.000000", event="state", state="NEW"):
    return ProfileRecord(time=t, entity=uid, event=event, state=state)


class TestBasics:
    def test_append_and_snapshot(self, env):
        store = ProfileStore(env)
        store.append(rec(0.0))
        store.append(rec(1.0, event="launch_start"))
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
        store = ProfileStore(env, read_time_base=0.0, read_time_per_record=0.0)
        for i in range(5):
            store.append(rec(float(i)))

        def reader(env):
            records, cursor = yield from store.read_since(0)
            assert len(records) == 5
            store.append(rec(99.0))
            more, cursor = yield from store.read_since(cursor)
            return [r.time for r in more]

        assert env.run(env.process(reader(env))) == [99.0]


class TestTiming:
    def test_read_time_scales_with_records(self, env):
        store = ProfileStore(
            env, read_time_base=0.0, read_time_per_record=0.01
        )
        for i in range(100):
            store.append(rec(float(i)))

        def reader(env):
            yield from store.read_since(0)
            return env.now

        assert env.run(env.process(reader(env))) == pytest.approx(1.0)

    def test_read_cap_bounds_time(self, env):
        store = ProfileStore(
            env,
            read_time_base=0.0,
            read_time_per_record=0.01,
            read_max_records=10,
        )
        for i in range(100):
            store.append(rec(float(i)))

        def reader(env):
            records, _ = yield from store.read_since(0)
            return env.now, len(records)

        t, n = env.run(env.process(reader(env)))
        assert t == pytest.approx(0.1)  # capped at 10 records
        assert n == 100  # but all records are returned

    def test_writer_blocks_behind_reader(self, env):
        store = ProfileStore(
            env,
            read_time_base=1.0,
            read_time_per_record=0.0,
            write_time=0.0,
        )
        store.append(rec(0.0))
        log = []

        def reader(env):
            yield from store.read_since(0)
            log.append(("read_done", env.now))

        def writer(env):
            yield env.timeout(0.1)
            yield from store.write_locked(rec(5.0))
            log.append(("write_done", env.now))

        env.process(reader(env))
        env.process(writer(env))
        env.run()
        times = dict(log)
        assert times["read_done"] == pytest.approx(1.0)
        # Writer had to wait for the reader's lock hold.
        assert times["write_done"] >= 1.0

    def test_write_locked_pays_write_time(self, env):
        store = ProfileStore(env, write_time=0.25)

        def writer(env):
            yield from store.write_locked(rec(0.0))
            return env.now

        assert env.run(env.process(writer(env))) == pytest.approx(0.25)
        assert store.writes == 1
