"""Synthetic workload generators."""

from repro.workloads import uniform_bag


def test_uniform_bag():
    bag = uniform_bag(5, duration=10.0, ranks=2)
    assert len(bag) == 5
    assert all(td.ranks == 2 for td in bag)
    assert len({td.name for td in bag}) == 5
