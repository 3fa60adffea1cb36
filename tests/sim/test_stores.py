"""Store semantics."""

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

    def test_put_event_precedes_the_get_it_serves(self, env):
        store = Store(env)
        order = []
        get = store.get()
        get.callbacks.append(lambda event: order.append("get"))
        put = store.put("x")
        put.callbacks.append(lambda event: order.append("put"))
        assert put.triggered and get.triggered
        env.run()
        assert order == ["put", "get"]
        assert get.value == "x"

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

    def test_cancel_after_trigger_is_noop(self, env):
        store = Store(env)
        store.put("x")
        store.put("y")
        get = store.get()
        assert get.triggered
        get.cancel()
        env.run()
        assert get.value == "x"
        assert list(store.items) == ["y"]
