"""Synthetic /proc: cumulative counters and interval utilization."""

import pytest

from repro.platform import Cluster, summit_like
from repro.rp import Client, PilotDescription, Session
from repro.soma import HARDWARE, SomaConfig, deploy_soma


@pytest.fixture
def cluster(env):
    return Cluster(env, summit_like(2))


def test_snapshot_fields(env, cluster):
    node = cluster.nodes[0]
    fs = cluster.procfs(node)
    env.run(until=100)
    snap = fs.read()
    assert snap.hostname == node.name
    assert snap.timestamp == 100.0
    assert snap.uptime == pytest.approx(100.0)
    assert snap.ncores == 42


def test_utilization_differencing(env, cluster):
    node = cluster.nodes[0]
    fs = cluster.procfs(node)
    snaps = []

    def sampler(env):
        for _ in range(4):
            yield env.timeout(10)
            snaps.append(fs.read())

    def worker(env):
        yield env.timeout(10)
        act = node.run_compute(cores=21, work=20.0, mem_intensity=0.0)
        yield act.done

    env.process(sampler(env))
    env.process(worker(env))
    env.run()
    utils = [
        snap.utilization_since(prev)
        for prev, snap in zip([None] + snaps[:-1], snaps)
    ]
    assert utils[0] == pytest.approx(0.0)
    assert utils[1] == pytest.approx(0.5)  # 21 of 42 cores busy
    assert utils[2] == pytest.approx(0.5)
    assert utils[3] == pytest.approx(0.0)


def test_utilization_bounded(env, cluster):
    node = cluster.nodes[0]
    fs = cluster.procfs(node)
    act = node.run_compute(cores=42, work=100.0)
    env.run(until=50)
    snap = fs.read()
    assert 0.0 <= snap.utilization_since(None) <= 1.0


def test_stored_sample_tree_shape():
    """The hardware monitor's stored record is Listing 2's tree."""
    session = Session(cluster_spec=summit_like(3), seed=3)
    client = Client(session)
    env = session.env
    config = SomaConfig(
        namespaces=(HARDWARE,), monitors=("proc",), monitoring_frequency=30.0
    )

    def main(env):
        pilot = yield from client.submit_pilot(PilotDescription(nodes=1, agent_nodes=1))
        deployment = yield from deploy_soma(client, pilot, config)
        yield env.timeout(100.0)
        return pilot, deployment

    pilot, deployment = env.run(env.process(main(env)))
    client.close()
    (node,) = pilot.compute_nodes
    records = deployment.store(HARDWARE).records()
    assert len(records) >= 2
    for record in records:
        tree = record.data
        (stamp,) = tree[f"PROC/{node.name}"].child_names()
        assert stamp == f"{float(stamp):.6f}" and float(stamp) <= record.time
        base = f"PROC/{node.name}/{stamp}"
        assert tree.paths() == [
            f"{base}/{leaf}"
            for leaf in (
                "Uptime",
                "Num Processes",
                "Available RAM",
                "stat/cpu",
                "stat/ncores",
                "gpu/busy_seconds",
                "cpu_utilization",
                "gpu_utilization",
            )
        ]
        assert tree[f"{base}/stat/ncores"] == 42
        busy, idle = tree[f"{base}/stat/cpu"]
        assert type(tree[f"{base}/stat/cpu"]) is list and busy >= 0 and idle >= 0
        assert 0.0 <= tree[f"{base}/cpu_utilization"] <= 1.0
        assert record.nbytes == tree.nbytes()


def test_num_processes_counter(env, cluster):
    node = cluster.nodes[0]
    act = node.run_compute(cores=4, work=10.0)
    snap = cluster.procfs(node).read()
    assert snap.num_processes == 1
    env.run(act.done)
    assert cluster.procfs(node).read().num_processes == 0


def test_gpu_busy_accounting(env, cluster):
    node = cluster.nodes[0]
    act = node.run_gpu_compute(gpus=3, work=node.spec.gpu_speed * 10)
    env.run(act.done)
    snap = cluster.procfs(node).read()
    assert snap.gpu_busy_seconds == pytest.approx(30.0)
