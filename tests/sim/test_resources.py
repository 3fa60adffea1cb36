"""Resource semantics."""

import pytest

from repro.sim import Resource


def holder(env, resource, hold, log, tag):
    with resource.request() as req:
        yield req
        log.append((tag, env.now))
        yield env.timeout(hold)


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_serializes_beyond_capacity(self, env):
        res = Resource(env, capacity=1)
        log = []
        for tag in "abc":
            env.process(holder(env, res, 5, log, tag))
        env.run()
        assert log == [("a", 0.0), ("b", 5.0), ("c", 10.0)]

    def test_parallel_within_capacity(self, env):
        res = Resource(env, capacity=3)
        log = []
        for tag in "abc":
            env.process(holder(env, res, 5, log, tag))
        env.run()
        assert [t for _, t in log] == [0.0, 0.0, 0.0]

    def test_count_and_queue(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            with res.request() as req:
                yield req
                assert res.count == 1
                yield env.timeout(1)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert res.count == 0
        assert res.queue == []

    def test_cancel_pending_request(self, env):
        res = Resource(env, capacity=1)
        log = []

        def canceller(env):
            req = res.request()
            yield env.timeout(0)  # it is queued behind the holder
            req.cancel()
            log.append("cancelled")

        def first(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        env.process(first(env))
        env.process(canceller(env))
        env.run()
        assert "cancelled" in log

    def test_release_explicit(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            req = res.request()
            yield req
            release = res.release(req)
            yield release
            return res.count

        assert env.run(env.process(proc(env))) == 0
