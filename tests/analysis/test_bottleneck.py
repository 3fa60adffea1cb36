"""Bottleneck detectors: unit rules on synthetic stores + the battery.

The unit tests drive each detector over hand-built namespace stores
with known truths; the battery tests run the named scenarios end to
end and check the detectors agree with each scenario's planted truth
— zero findings on the clean calibration runs, exactly the expected
kind on each fault run.
"""

from collections import Counter

import pytest

from repro.analysis.bottleneck import (
    CLEAN_SCENARIOS,
    DEFAULT_THRESHOLDS,
    DETECTORS,
    KINDS,
    SCENARIOS,
    DetectionContext,
    Finding,
    Thresholds,
    detect_all,
    render_findings,
    run_scenario,
)
from repro.analysis.bottleneck.detectors import (
    CpuOversubscriptionDetector,
    LoadImbalanceDetector,
    RpcQueueingDetector,
    SchedulerStarvationDetector,
)
from repro.conduit import Node
from repro.soma import NamespaceStore, PublishedRecord
from repro.soma.namespaces import HARDWARE, PERFORMANCE, WORKFLOW


def hw_store(samples):
    """``samples``: iterable of (time, host, cpu_utilization)."""
    store = NamespaceStore(HARDWARE)
    for t, host, util in samples:
        tree = Node()
        base = f"PROC/{host}/{t:.6f}"
        tree[f"{base}/cpu_utilization"] = util
        tree[f"{base}/gpu_utilization"] = 0.2
        store.append(t, f"hwmon@{host}", tree)
    return store


def wf_store(series):
    """``series``: iterable of (time, source, done, pending)."""
    store = NamespaceStore(WORKFLOW)
    for t, source, done, pending in series:
        tree = Node()
        tree["RP/summary/timestamp"] = t
        tree["RP/summary/tasks_seen"] = 20
        tree["RP/summary/done"] = done
        tree["RP/summary/failed"] = 0
        tree["RP/summary/running"] = 2
        tree["RP/summary/pending"] = pending
        store.append(t, source, tree)
    return store


def tau_store(rank_compute, uid="task.000042", at=500.0):
    store = NamespaceStore(PERFORMANCE)
    tree = Node()
    total = max(rank_compute) + 5.0
    for rank, compute in enumerate(rank_compute):
        base = f"TAU/{uid}/cn0002/rank{rank:05d}"
        tree[f"{base}/solve"] = compute
        tree[f"{base}/MPI_Allreduce"] = total - compute
    store.append(at, f"tau@{uid}", tree)
    return store


def make_ctx(now=3000.0, stores=None, server_stats=None):
    return DetectionContext(
        now=now, stores=stores or {}, server_stats=server_stats or {}
    )


class TestCpuOversubscriptionDetector:
    detector = CpuOversubscriptionDetector()

    def saturated(self, host="cn0002", level=0.95, n=11, period=30.0):
        return [(i * period, host, level) for i in range(n)]

    def test_sustained_saturation_fires(self):
        ctx = make_ctx(stores={HARDWARE: hw_store(self.saturated())})
        findings = self.detector.detect(ctx, DEFAULT_THRESHOLDS)
        assert [f.where for f in findings] == ["cn0002"]
        f = findings[0]
        assert f.kind == "cpu_oversubscription"
        assert f.window == (0.0, 300.0)
        assert f.evidence["sustained_seconds"] == pytest.approx(300.0)
        assert f.severity == pytest.approx(
            300.0 / DEFAULT_THRESHOLDS.cpu_sustained_seconds
        )

    def test_short_spike_ignored(self):
        # Three saturated samples spanning 60 s: a real spike, but far
        # below the calibrated sustained threshold.
        ctx = make_ctx(stores={HARDWARE: hw_store(self.saturated(n=3))})
        assert self.detector.detect(ctx, DEFAULT_THRESHOLDS) == []
        assert self.detector.observe(ctx) == pytest.approx(60.0)

    def test_busy_but_unsaturated_ignored(self):
        samples = [(i * 30.0, "cn0002", 0.85) for i in range(20)]
        ctx = make_ctx(stores={HARDWARE: hw_store(samples)})
        assert self.detector.detect(ctx, DEFAULT_THRESHOLDS) == []
        assert self.detector.observe(ctx) == 0.0

    def test_interrupted_run_resets(self):
        # 5 saturated, one idle dip, 5 saturated: two 120 s runs, not
        # one 330 s run.
        samples = self.saturated(n=11)
        samples[5] = (150.0, "cn0002", 0.1)
        ctx = make_ctx(stores={HARDWARE: hw_store(samples)})
        assert self.detector.observe(ctx) == pytest.approx(120.0)
        assert self.detector.detect(ctx, DEFAULT_THRESHOLDS) == []

    def test_no_hardware_store_is_quiet(self):
        ctx = make_ctx()
        assert self.detector.observe(ctx) == 0.0
        assert self.detector.detect(ctx, DEFAULT_THRESHOLDS) == []


class TestRpcQueueingDetector:
    detector = RpcQueueingDetector()

    def stats(self, mean_queue, calls=200):
        return {
            "ranks": 1,
            "calls": calls,
            "errors": 0,
            "mean_queue_seconds": mean_queue,
            "busy_seconds": 0.02 * calls,
        }

    def test_saturated_namespace_fires(self):
        ctx = make_ctx(
            server_stats={
                "hardware": self.stats(1.5),
                "workflow": self.stats(0.001),
            }
        )
        findings = self.detector.detect(ctx, DEFAULT_THRESHOLDS)
        assert [f.where for f in findings] == ["soma.hardware"]
        assert findings[0].severity == pytest.approx(
            1.5 / DEFAULT_THRESHOLDS.rpc_mean_queue_seconds
        )
        assert findings[0].evidence["mean_service_seconds"] == pytest.approx(
            0.02
        )
        assert self.detector.observe(ctx) == pytest.approx(1.5)

    def test_idle_namespace_ignored(self):
        ctx = make_ctx(server_stats={"workflow": self.stats(9.9, calls=0)})
        assert self.detector.detect(ctx, DEFAULT_THRESHOLDS) == []
        assert self.detector.observe(ctx) == 0.0

    def test_prefers_windowed_peak_over_diluted_mean(self):
        # A ten-minute burst diluted into a long run: lifetime mean
        # looks clean but the windowed peak carries the saturation.
        burst = dict(
            self.stats(0.005), peak_window_queue_seconds=2.0
        )
        ctx = make_ctx(server_stats={"hardware": burst})
        findings = self.detector.detect(ctx, DEFAULT_THRESHOLDS)
        assert [f.where for f in findings] == ["soma.hardware"]
        assert self.detector.observe(ctx) == pytest.approx(2.0)
        # Without the windowed field the diluted mean stays quiet —
        # exactly the blind spot the windowed ServerStats closes.
        ctx = make_ctx(server_stats={"hardware": self.stats(0.005)})
        assert self.detector.detect(ctx, DEFAULT_THRESHOLDS) == []


class TestLoadImbalanceDetector:
    detector = LoadImbalanceDetector()

    def test_straggler_rank_fires(self):
        # compute [40, 10, 10, 10, 10]: max/mean = 40/16 = 2.5.
        store = tau_store([40.0, 10.0, 10.0, 10.0, 10.0])
        ctx = make_ctx(stores={PERFORMANCE: store})
        findings = self.detector.detect(ctx, DEFAULT_THRESHOLDS)
        assert [f.where for f in findings] == ["task.000042"]
        f = findings[0]
        assert f.evidence["imbalance"] == pytest.approx(2.5)
        assert f.evidence["ranks"] == 5
        assert f.evidence["max_compute_seconds"] == pytest.approx(40.0)
        assert f.window == (500.0, 500.0)
        assert self.detector.observe(ctx) == pytest.approx(2.5)

    def test_balanced_ranks_quiet(self):
        store = tau_store([10.0, 11.0, 10.5, 10.2])
        ctx = make_ctx(stores={PERFORMANCE: store})
        assert self.detector.detect(ctx, DEFAULT_THRESHOLDS) == []

    def test_mpi_wait_does_not_count_as_compute(self):
        # Total per-rank time is flat (fast ranks sit in MPI_Allreduce);
        # only the compute split should drive the ratio.
        store = tau_store([30.0, 10.0])  # totals are 35 for both ranks
        ctx = make_ctx(stores={PERFORMANCE: store})
        assert self.detector.observe(ctx) == pytest.approx(1.5)

    def test_one_call_rebuilds_each_record_at_most_twice(self, monkeypatch):
        # Every read of a stored record rebuilds its tree; detect merges
        # the store once and finds every task's window in one more pass.
        store = NamespaceStore(PERFORMANCE)
        for i, ranks in enumerate(([40.0, 10.0, 10.0], [10.0, 10.5], [30.0, 2.0])):
            uid = f"task.{i:06d}"
            for rank, compute in enumerate(ranks):  # one record per rank
                tree = Node()
                tree[f"TAU/{uid}/cn0001/rank{rank:05d}/solve"] = compute
                store.append(100.0 * i + rank, f"tau@{uid}", tree)
        reads = Counter()
        rebuild = PublishedRecord.data.fget

        def counted(record):
            reads[id(record)] += 1
            return rebuild(record)

        monkeypatch.setattr(PublishedRecord, "data", property(counted))
        ctx = make_ctx(stores={PERFORMANCE: store})
        findings = self.detector.detect(ctx, DEFAULT_THRESHOLDS)
        assert [f.where for f in findings] == ["task.000000", "task.000002"]
        assert [f.window for f in findings] == [(0.0, 2.0), (200.0, 201.0)]
        assert len(reads) == len(store) and max(reads.values()) == 2
        reads.clear()
        assert self.detector.observe(ctx) == pytest.approx(2.0)
        assert len(reads) == len(store) and max(reads.values()) == 1


class TestSchedulerStarvationDetector:
    detector = SchedulerStarvationDetector()

    def stalled_series(self, source="rpmon", stall_samples=10):
        series = [(60.0, source, 0, 12), (120.0, source, 4, 10)]
        for i in range(stall_samples):
            series.append((180.0 + i * 60.0, source, 4, 10))
        series.append((180.0 + stall_samples * 60.0, source, 14, 0))
        return series

    def test_frozen_done_with_pending_fires(self):
        ctx = make_ctx(stores={WORKFLOW: wf_store(self.stalled_series())})
        findings = self.detector.detect(ctx, DEFAULT_THRESHOLDS)
        assert [f.where for f in findings] == ["rpmon"]
        f = findings[0]
        assert f.window == (120.0, 720.0)
        assert f.evidence["stall_seconds"] == pytest.approx(600.0)
        assert f.evidence["max_pending"] == pytest.approx(10.0)

    def test_progressing_run_quiet(self):
        series = [(60.0 * i, "rpmon", i, 10 - i) for i in range(10)]
        ctx = make_ctx(stores={WORKFLOW: wf_store(series)})
        assert self.detector.detect(ctx, DEFAULT_THRESHOLDS) == []
        assert self.detector.observe(ctx) == 0.0

    def test_drained_queue_is_not_starvation(self):
        # done frozen but nothing pending: the run is just idle.
        series = [(60.0 * i, "rpmon", 5, 0) for i in range(12)]
        ctx = make_ctx(stores={WORKFLOW: wf_store(series)})
        assert self.detector.detect(ctx, DEFAULT_THRESHOLDS) == []

    def test_sources_tracked_independently(self):
        # A healthy second monitor interleaved with the stalled one
        # must neither mask the stall nor produce its own finding.
        series = self.stalled_series()
        series += [(55.0 + 60.0 * i, "rpmon-b", i, 5) for i in range(13)]
        ctx = make_ctx(stores={WORKFLOW: wf_store(series)})
        findings = self.detector.detect(ctx, DEFAULT_THRESHOLDS)
        assert [f.where for f in findings] == ["rpmon"]


class TestBatteryPlumbing:
    def test_detect_all_sorts_most_severe_first(self):
        ctx = make_ctx(
            stores={
                HARDWARE: hw_store(
                    [(i * 30.0, "cn0002", 0.95) for i in range(11)]
                )
            },
            server_stats={
                "hardware": {
                    "ranks": 1,
                    "calls": 10,
                    "errors": 0,
                    "mean_queue_seconds": 8.0,
                    "busy_seconds": 1.0,
                }
            },
        )
        findings = detect_all(ctx)
        assert [f.kind for f in findings] == [
            "rpc_queueing",
            "cpu_oversubscription",
        ]
        assert findings[0].severity > findings[1].severity

    def test_observe_all_covers_every_metric(self):
        ctx = make_ctx()
        observed = {d.metric_field: d.observe(ctx) for d in DETECTORS}
        assert set(observed) == {
            "cpu_sustained_seconds",
            "rpc_mean_queue_seconds",
            "imbalance_ratio",
            "stall_seconds",
        }
        assert all(v == 0.0 for v in observed.values())

    def test_thresholds_round_trip_and_validation(self):
        data = DEFAULT_THRESHOLDS.to_dict()
        assert Thresholds(**data) == DEFAULT_THRESHOLDS
        bumped = DEFAULT_THRESHOLDS.with_updates(stall_seconds=999.0)
        assert bumped.stall_seconds == 999.0
        assert DEFAULT_THRESHOLDS.stall_seconds != 999.0

    def test_finding_to_dict_and_render(self):
        finding = Finding(
            kind="rpc_queueing",
            detector="rpc-queueing",
            where="soma.workflow",
            start=0.0,
            end=100.0,
            severity=2.0,
            evidence={"calls": 5},
            threshold={"rpc_mean_queue_seconds": 0.05},
            action="add ranks",
        )
        payload = finding.to_dict()
        assert payload["kind"] == "rpc_queueing"
        assert payload["evidence"] == {"calls": 5}
        text = render_findings([finding])
        assert "soma.workflow" in text and "add ranks" in text
        assert "no findings" in render_findings([])


class TestScenarioBattery:
    """The acceptance battery: detectors vs each scenario's truth."""

    def test_registry_covers_every_kind(self):
        planted = set().union(*(s.expect for s in SCENARIOS.values()))
        assert planted == set(KINDS)
        assert len(planted) >= 4

    @pytest.mark.parametrize("seed", (3, 17))
    @pytest.mark.parametrize("name", CLEAN_SCENARIOS)
    def test_clean_scenarios_produce_zero_findings(self, name, seed):
        ctx = DetectionContext.from_result(run_scenario(name, seed=seed))
        assert detect_all(ctx) == []

    @pytest.mark.parametrize(
        "name", [n for n, s in SCENARIOS.items() if s.expect]
    )
    def test_fault_scenarios_fire_exactly_their_kind(self, name):
        scenario = SCENARIOS[name]
        ctx = DetectionContext.from_result(run_scenario(name, seed=42))
        findings = detect_all(ctx)
        assert {f.kind for f in findings} == set(scenario.expect)
        assert all(f.severity >= 1.0 for f in findings)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("no-such-scenario")
