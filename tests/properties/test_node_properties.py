"""Property-based tests for a node's free-slot counters.

``Node.free_cores`` and ``Node.free_gpus`` are counters kept in step by
``allocate`` and ``free``, not re-counts of the owner maps.  Random
sequences of allocations (over-asks, negative counts, calls on a failed
node), releases (double releases included) and failures check after
every step that each counter equals the number of unowned slots in its
map, that a refused allocation changes nothing, and that a granted one
takes exactly the lowest-index free slots.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import AllocationError, Node, NodeSpec
from repro.sim import Environment

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("allocate"),
            st.integers(min_value=-2, max_value=45),  # cores (42 usable)
            st.integers(min_value=-1, max_value=7),  # gpus (6 on the node)
        ),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("fail")),
    ),
    max_size=40,
)


def free_slots(owners):
    return [i for i, owner in enumerate(owners) if owner is None]


def assert_counters_match_maps(node):
    assert node.free_cores == node._core_owner.count(None)
    assert node.free_gpus == node._gpu_owner.count(None)


@given(operations)
@settings(max_examples=200, deadline=None)
def test_counters_track_owner_maps(ops):
    node = Node(Environment(), 0, NodeSpec())
    allocations = []
    assert_counters_match_maps(node)
    for step, op in enumerate(ops):
        if op[0] == "allocate":
            _, cores, gpus = op
            core_map = list(node._core_owner)
            gpu_map = list(node._gpu_owner)
            counters = (node.free_cores, node.free_gpus)
            try:
                allocation = node.allocate(cores, gpus, owner=f"t{step}")
            except (AllocationError, ValueError):
                assert node._core_owner == core_map
                assert node._gpu_owner == gpu_map
                assert (node.free_cores, node.free_gpus) == counters
            else:
                assert allocation.cores == free_slots(core_map)[:cores]
                assert allocation.gpus == free_slots(gpu_map)[:gpus]
                assert len(allocation.cores) == cores
                assert len(allocation.gpus) == gpus
                allocations.append(allocation)
        elif op[0] == "release":
            if allocations:
                allocations[op[1] % len(allocations)].release()
        else:
            node.fail()
        assert_counters_match_maps(node)


def test_failed_node_keeps_slots_until_released():
    node = Node(Environment(), 0, NodeSpec())
    allocation = node.allocate(10, 2, owner="t")
    node.fail()
    assert (node.free_cores, node.free_gpus) == (32, 4)
    with pytest.raises(AllocationError):
        node.allocate(1)
    allocation.release()
    assert (node.free_cores, node.free_gpus) == (42, 6)
