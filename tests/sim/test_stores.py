"""Store semantics."""

import pytest

from repro.sim import Store


class TestStore:
    def test_fifo_order(self, env):
        store = Store(env)

        def producer(env):
            for i in range(3):
                yield store.put(i)

        def consumer(env):
            out = []
            for _ in range(3):
                item = yield store.get()
                out.append(item)
            return out

        env.process(producer(env))
        assert env.run(env.process(consumer(env))) == [0, 1, 2]

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (env.now, item)

        def producer(env):
            yield env.timeout(5)
            yield store.put("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        assert env.run(c) == (5.0, "late")

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            log.append(("a", env.now))
            yield store.put("b")
            log.append(("b", env.now))

        def consumer(env):
            yield env.timeout(4)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert log == [("a", 0.0), ("b", 4.0)]

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_len(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        env.run()
        assert len(store) == 2


class TestCancellation:
    def test_cancelled_get_is_skipped(self, env):
        store = Store(env)
        first = store.get()
        second = store.get()
        first.cancel()
        store.put("item")
        env.run()
        assert not first.triggered
        assert second.triggered and second.value == "item"

    def test_cancelled_put_is_skipped(self, env):
        store = Store(env, capacity=1)
        store.put("held")
        blocked = store.put("blocked")
        behind = store.put("behind")
        blocked.cancel()

        def consumer(env):
            out = []
            for _ in range(2):
                out.append((yield store.get()))
            return out

        assert env.run(env.process(consumer(env))) == ["held", "behind"]
        assert not blocked.triggered

    def test_cancel_after_trigger_is_noop(self, env):
        store = Store(env)
        put = store.put("x")
        assert put.triggered
        put.cancel()
        env.run()
        assert len(store) == 1
