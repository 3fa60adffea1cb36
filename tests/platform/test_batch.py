"""Batch system: FIFO node allocation."""

import pytest

from repro.platform import BatchError, Cluster, JobRequest, summit_like


@pytest.fixture
def cluster(env):
    return Cluster(env, summit_like(4))


def submit_and_hold(env, cluster, nodes, hold, log, name):
    alloc = yield from cluster.batch.submit(
        JobRequest(nodes=nodes, walltime=1e6, name=name)
    )
    log.append((name, env.now, [n.name for n in alloc.nodes]))
    yield env.timeout(hold)
    cluster.batch.release(alloc)


def test_immediate_grant(env, cluster):
    log = []
    env.process(submit_and_hold(env, cluster, 2, 10, log, "j1"))
    env.run()
    assert log[0][0:2] == ("j1", 0.0)
    assert len(log[0][2]) == 2


def test_fifo_blocking(env, cluster):
    log = []
    env.process(submit_and_hold(env, cluster, 3, 10, log, "big"))
    env.process(submit_and_hold(env, cluster, 2, 5, log, "waits"))
    # A 1-node job behind the 2-node job must NOT jump the queue.
    env.process(submit_and_hold(env, cluster, 1, 5, log, "small"))
    env.run()
    names_in_order = [name for name, _, _ in log]
    assert names_in_order == ["big", "small", "waits"] or names_in_order == [
        "big",
        "waits",
        "small",
    ]
    # 'waits' cannot start before 'big' releases at t=10.
    start = {name: t for name, t, _ in log}
    assert start["waits"] >= 10.0
    # strict FIFO: small (1 node) queued behind waits (2 nodes) while
    # big holds 3 of 4: small COULD fit but FIFO head blocks it.
    assert start["small"] >= 10.0


def test_too_large_job_rejected(env, cluster):
    def proc(env):
        yield from cluster.batch.submit(JobRequest(nodes=99, walltime=10))

    env.process(proc(env))
    with pytest.raises(BatchError):
        env.run()


def test_zero_node_job_rejected(env, cluster):
    def proc(env):
        yield from cluster.batch.submit(JobRequest(nodes=0, walltime=10))

    env.process(proc(env))
    with pytest.raises(BatchError):
        env.run()


def test_release_returns_nodes(env, cluster):
    log = []
    env.process(submit_and_hold(env, cluster, 4, 7, log, "all"))
    env.run()
    assert cluster.batch.free_nodes == 4
    assert cluster.batch.completed == 1


class TestBackfill:
    """No backfilling: a blocked head holds back every later job."""

    def test_backfill_preserves_order_among_blocked_jobs(self, env, cluster):
        log = []
        env.process(submit_and_hold(env, cluster, 4, 10, log, "full"))
        env.process(submit_and_hold(env, cluster, 3, 5, log, "first"))
        env.process(submit_and_hold(env, cluster, 3, 5, log, "second"))
        env.run()
        # Nothing can start while 'full' holds every node; FIFO order holds.
        assert [name for name, _, _ in log] == ["full", "first", "second"]

    def test_strict_fifo_is_the_default(self, env, cluster):
        log = []
        env.process(submit_and_hold(env, cluster, 3, 10, log, "big"))
        env.process(submit_and_hold(env, cluster, 2, 5, log, "waits"))
        env.process(submit_and_hold(env, cluster, 1, 5, log, "small"))
        env.run()
        start = {name: t for name, t, _ in log}
        assert start["small"] >= 10.0  # head still blocks everyone
