"""Node failure semantics at the platform level."""

import pytest

from repro.platform import Cluster, NodeFailure, summit_like


@pytest.fixture
def node(env):
    return Cluster(env, summit_like(2)).nodes[0]


def test_fail_kills_resident_computations(env, node):
    act = node.run_compute(cores=10, work=100.0)
    caught = {}

    def waiter(env):
        try:
            yield act.done
        except NodeFailure as exc:
            caught["exc"] = exc

    def killer(env):
        yield env.timeout(5)
        node.fail()

    env.process(waiter(env))
    env.process(killer(env))
    env.run()
    assert isinstance(caught["exc"], NodeFailure)
    assert not node.alive


def test_fail_zeroes_meters(env, node):
    node.run_compute(cores=10, work=100.0)
    node.run_gpu_compute(gpus=2, work=100.0)
    env.run(until=1)
    node.fail()
    assert node.busy_cores.value == 0
    assert node.busy_gpus.value == 0
    assert node.num_processes == 0
    env.run()  # no crash from the defused failures


def test_fail_is_idempotent(env, node):
    node.fail()
    node.fail()
    assert not node.alive


def test_unobserved_activity_fails_silently(env, node):
    # Nobody ever yields on this activity's done event.
    node.run_compute(cores=4, work=50.0)
    node.fail()
    env.run()  # pre-defused: the failure must not crash the run


def test_gpu_meter_balanced_after_normal_completion(env, node):
    act = node.run_gpu_compute(gpus=3, work=node.spec.gpu_speed * 2)
    env.run(act.done)
    assert node.busy_gpus.value == 0


def test_cancel_balances_meters(env, node):
    act = node.run_compute(cores=7, work=100.0)
    env.run(until=2)
    act.cancel()
    assert node.busy_cores.value == 0
    assert node.num_processes == 0
    env.run()
    # Integral only covers the 2 seconds it actually ran.
    assert node.busy_cores.integral == pytest.approx(14.0)
