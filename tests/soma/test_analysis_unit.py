"""Unit tests for the SOMA analysis functions on synthetic stores."""

import pytest

from repro.conduit import Node
from repro.soma import (
    NamespaceStore,
    cpu_utilization_series,
    free_resource_estimate,
    load_imbalance,
    rank_region_breakdown,
    task_state_observations,
    task_throughput,
    workflow_summary_series,
)


def hw_store():
    store = NamespaceStore("hardware")
    for t, util in ((30.0, 0.1), (60.0, 0.8), (90.0, 0.9)):
        tree = Node()
        base = f"PROC/cn0001/{t:.6f}"
        tree[f"{base}/cpu_utilization"] = util
        tree[f"{base}/gpu_utilization"] = util / 2
        store.append(t, "hwmon@cn0001", tree)
    tree = Node()
    tree["PROC/cn0002/45.000000/cpu_utilization"] = 0.5
    tree["PROC/cn0002/45.000000/gpu_utilization"] = 0.0
    store.append(45.0, "hwmon@cn0002", tree)
    return store


def wf_store():
    store = NamespaceStore("workflow")
    for i, (t, done) in enumerate([(60.0, 0), (120.0, 3), (180.0, 9)]):
        tree = Node()
        tree["RP/summary/timestamp"] = t
        tree["RP/summary/tasks_seen"] = 10
        tree["RP/summary/done"] = done
        tree["RP/summary/failed"] = 0
        tree["RP/summary/running"] = 10 - done
        tree["RP/summary/pending"] = 0
        tree[f"RP/task.{i:06d}/{t - 1:.6f}"] = "AGENT_EXECUTING"
        store.append(t, "rpmon", tree)
    return store


def tau_store():
    store = NamespaceStore("performance")
    tree = Node()
    for rank, compute in enumerate([10.0, 12.0, 8.0]):
        base = f"TAU/task.000007/cn0001/rank{rank:05d}"
        tree[f"{base}/solve"] = compute
        tree[f"{base}/MPI_Recv"] = 12.0 - compute
    store.append(100.0, "tau@task.000007", tree)
    return store


class TestHardwareAnalysis:
    def test_series_per_host(self):
        series = cpu_utilization_series(hw_store())
        assert set(series) == {"cn0001", "cn0002"}
        assert [p.cpu_utilization for p in series["cn0001"]] == [0.1, 0.8, 0.9]
        assert series["cn0001"][0].gpu_utilization == 0.05

    def test_series_host_filter(self):
        points = cpu_utilization_series(hw_store())["cn0002"]
        assert points and {p.hostname for p in points} == {"cn0002"}

    def test_free_resource_estimate_window(self):
        headroom = free_resource_estimate(hw_store(), window=40.0, now=100.0)
        # Only samples in [60, 100]: cn0001 has cpu 0.8, 0.9 -> 1-0.85
        # and gpu 0.4, 0.45 -> 1-0.425.
        assert headroom["cn0001"]["cpu"] == pytest.approx(0.15)
        assert headroom["cn0001"]["gpu"] == pytest.approx(0.575)
        assert "cn0002" not in headroom  # sample at 45 is outside

    def test_free_resource_estimate_clamps_oversubscribed(self):
        store = NamespaceStore("hardware")
        from repro.conduit import Node

        tree = Node()
        tree["PROC/cn0001/50.000000/cpu_utilization"] = 1.4
        tree["PROC/cn0001/50.000000/gpu_utilization"] = 1.1
        store.append(50.0, "hwmon@cn0001", tree)
        headroom = free_resource_estimate(store, window=100.0, now=100.0)
        # Oversubscribed samples clamp to zero headroom, never negative.
        assert headroom["cn0001"] == {"cpu": 0.0, "gpu": 0.0}

    def test_empty_store(self):
        assert cpu_utilization_series(NamespaceStore("hardware")) == {}
        assert free_resource_estimate(
            NamespaceStore("hardware"), 10.0, 100.0
        ) == {}


class TestWorkflowAnalysis:
    def test_summary_series(self):
        series = workflow_summary_series(wf_store())
        assert [s["done"] for s in series] == [0.0, 3.0, 9.0]

    def test_throughput(self):
        rates = task_throughput(wf_store())
        assert rates[0][1] == pytest.approx(3 / 60.0)
        assert rates[1][1] == pytest.approx(6 / 60.0)

    def test_throughput_skips_cross_source_pairs(self):
        from repro.conduit import Node

        store = wf_store()
        # A second monitor publishing its own (lower) counters midway
        # must not fabricate rates against the first monitor's series.
        tree = Node()
        tree["RP/summary/timestamp"] = 150.0
        tree["RP/summary/done"] = 1
        store.append(150.0, "rpmon-b", tree)
        rates = dict(task_throughput(store))
        assert rates[120.0] == pytest.approx(3 / 60.0)
        assert rates[180.0] == pytest.approx(6 / 60.0)
        assert 150.0 not in rates  # lone cross-source sample: no pair

    def test_throughput_surfaces_counter_regression(self):
        from repro.conduit import Node

        store = wf_store()
        # Same source regressing its done counter: a real symptom the
        # old clamp silently hid — the negative rate must surface.
        tree = Node()
        tree["RP/summary/timestamp"] = 240.0
        tree["RP/summary/done"] = 3
        store.append(240.0, "rpmon", tree)
        rates = dict(task_throughput(store))
        assert rates[240.0] == pytest.approx(-6 / 60.0)

    def test_state_observations(self):
        obs = task_state_observations(wf_store(), event="AGENT_EXECUTING")
        assert len(obs) == 3
        assert obs[0][1] == "task.000000"

    def test_state_observation_dedup(self):
        store = wf_store()
        # Republish the same event: must not double count.
        tree = Node()
        tree["RP/task.000000/59.000000"] = "AGENT_EXECUTING"
        store.append(240.0, "rpmon", tree)
        obs = task_state_observations(store, event="AGENT_EXECUTING")
        assert len(obs) == 3


class TestPerformanceAnalysis:
    def test_breakdown(self):
        breakdown = rank_region_breakdown(tau_store(), "task.000007")
        assert set(breakdown) == {0, 1, 2}
        assert breakdown[1]["solve"] == 12.0

    def test_breakdown_missing_task(self):
        assert rank_region_breakdown(tau_store(), "task.999999") == {}

    def test_load_imbalance_on_compute_only(self):
        imbalance = load_imbalance(tau_store(), "task.000007")
        assert imbalance == pytest.approx(12.0 / 10.0)

    def test_load_imbalance_missing_task_is_zero(self):
        assert load_imbalance(tau_store(), "task.999999") == 0.0
