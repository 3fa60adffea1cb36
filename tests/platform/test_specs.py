"""Platform specifications."""

from repro.platform import SUMMIT, summit_like


def test_summit_node_geometry():
    node = SUMMIT.node
    assert node.physical_cores == 44
    assert node.os_reserved_cores == 2
    assert node.usable_cores == 42
    assert node.gpus == 6


def test_summit_like_scales_nodes():
    spec = summit_like(128)
    assert spec.nodes == 128
    assert spec.node.usable_cores == 42


def test_specs_are_frozen():
    import dataclasses

    import pytest

    with pytest.raises(dataclasses.FrozenInstanceError):
        SUMMIT.node.gpus = 8  # type: ignore[misc]


def test_cluster_totals(env):
    from repro.platform import Cluster

    cluster = Cluster(env, summit_like(3))
    assert cluster.total_cores == 3 * 42
    assert cluster.total_gpus == 18
    assert cluster.node_by_name("cn0001").index == 1


def test_node_by_name_missing(env):
    import pytest

    from repro.platform import Cluster

    cluster = Cluster(env, summit_like(2))
    with pytest.raises(KeyError):
        cluster.node_by_name("cn9999")
