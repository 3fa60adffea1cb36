"""Node model: allocation maps, compute, meters, memory."""

import pytest

from repro.platform import AllocationError, Node, NodeSpec


@pytest.fixture
def node(env):
    return Node(env, 0, NodeSpec())


class TestAllocation:
    def test_usable_cores_excludes_os(self, node):
        assert node.total_cores == 42

    def test_allocate_and_free(self, node):
        alloc = node.allocate(10, 2, owner="t1")
        assert node.free_cores == 32
        assert node.free_gpus == 4
        alloc.release()
        assert node.free_cores == 42
        assert node.free_gpus == 6

    def test_over_allocate_cores_raises(self, node):
        node.allocate(40)
        with pytest.raises(AllocationError):
            node.allocate(3)

    def test_over_allocate_gpus_raises(self, node):
        node.allocate(1, 6)
        with pytest.raises(AllocationError):
            node.allocate(1, 1)

    def test_negative_counts_rejected(self, node):
        with pytest.raises(ValueError):
            node.allocate(-1)

    def test_double_release_is_idempotent(self, node):
        alloc = node.allocate(5)
        alloc.release()
        alloc.release()
        assert node.free_cores == 42

    def test_owner_tracking(self, node):
        node.allocate(5, owner="task.1")
        node.allocate(3, 2, owner="task.2")
        assert node.owners() == {"task.1", "task.2"}

    def test_distinct_core_slots(self, node):
        a = node.allocate(5, owner="a")
        b = node.allocate(5, owner="b")
        assert not set(a.cores) & set(b.cores)


class TestCompute:
    def test_solo_compute_runs_at_full_speed(self, env, node):
        act = node.run_compute(cores=10, work=50.0, mem_intensity=0.6)
        env.run(act.done)
        assert env.now == pytest.approx(50.0)

    def test_busy_meter_tracks_compute(self, env, node):
        act = node.run_compute(cores=10, work=50.0)
        assert node.busy_cores.value == 10
        env.run(act.done)
        assert node.busy_cores.value == 0
        assert node.busy_cores.integral == pytest.approx(500.0)

    def test_memory_contention_two_jobs(self, env, node):
        # 2 x 12 demanding cores on an 18-capacity bus: overload 24/18.
        a = node.run_compute(cores=12, work=60.0, mem_intensity=0.5)
        b = node.run_compute(cores=12, work=60.0, mem_intensity=0.5)
        env.run(a.done)
        expected_slowdown = 0.5 + 0.5 * (24.0 / 18.0)
        assert env.now == pytest.approx(60.0 * expected_slowdown)

    def test_gpu_compute(self, env, node):
        act = node.run_gpu_compute(gpus=2, work=80.0)
        assert node.busy_gpus.value == 2
        env.run(act.done)
        assert env.now == pytest.approx(80.0 / node.spec.gpu_speed)
        assert node.busy_gpus.value == 0

    def test_jitter_injection_consumes_cpu(self, env, node):
        act = node.inject_jitter(cpu_seconds=0.5)
        env.run(act.done)
        assert env.now == pytest.approx(0.5)
        assert node.busy_cores.integral == pytest.approx(0.5)

    def test_cpu_utilization_instantaneous(self, env, node):
        node.run_compute(cores=21, work=100.0)
        assert node.cpu_utilization() == pytest.approx(0.5)


class TestMemory:
    def test_available_memory_is_the_whole_node_as_a_float(self, node):
        # /proc's ``Available RAM`` leaf must stay a float: an int
        # would change the JSON of every hardware record.
        assert node.available_memory_mib == node.spec.memory_mib
        assert type(node.available_memory_mib) is float
