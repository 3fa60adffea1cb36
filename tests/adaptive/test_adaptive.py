"""Adaptive policies and controller."""

import pytest

from repro.adaptive import (
    AdaptiveController,
    DetectionDrivenPolicy,
    RankTuningPolicy,
    TrainingParallelismPolicy,
    UtilizationAwarePlacement,
)
from repro.platform import summit_like
from repro.rp import (
    Client,
    FixedDurationModel,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.adaptive.policies import _modeled_best_workers
from repro.workloads import DDMDParams, OpenFOAMParams


class TestRankTuningPolicy:
    def test_no_data_no_recommendation(self):
        assert RankTuningPolicy().recommend() is None

    def test_efficiency_weighted_choice(self):
        # Perfect scaling up to 82 ranks, saturation at 164.
        policy = RankTuningPolicy(speedup_weight=0.0)
        params = OpenFOAMParams()
        import math

        for ranks in (20, 41, 82, 164):
            policy.observe(ranks, params.ideal_time(ranks, math.ceil(ranks / 41)))
        choice = policy.recommend()
        # Pure efficiency: the smallest config has the lowest
        # core-seconds (comm overhead grows with ranks).
        assert choice == 20

    def test_speed_weighted_choice(self):
        policy = RankTuningPolicy(speedup_weight=1.0)
        import math

        params = OpenFOAMParams()
        for ranks in (20, 41, 82, 164):
            policy.observe(ranks, params.ideal_time(ranks, math.ceil(ranks / 41)))
        assert policy.recommend() == 164  # fastest wall time

    def test_blended_choice_prefers_knee(self):
        policy = RankTuningPolicy(speedup_weight=0.35)
        import math

        params = OpenFOAMParams()
        for ranks in (20, 41, 82, 164):
            policy.observe(ranks, params.ideal_time(ranks, math.ceil(ranks / 41)))
        # The knee of the curve: scaling past 82 barely helps (Fig 4).
        assert policy.recommend() in (41, 82)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            RankTuningPolicy(speedup_weight=2.0)

    def test_mean_times_aggregates(self):
        policy = RankTuningPolicy()
        policy.observe(20, 100.0)
        policy.observe(20, 110.0)
        assert policy.mean_times() == {20: 105.0}


class TestTrainingParallelismPolicy:
    def test_low_headroom_stays_serial(self):
        policy = TrainingParallelismPolicy()
        assert policy.recommend({"cn0001": 0.2}, free_gpus=6) == 1

    def test_high_headroom_parallelizes(self):
        policy = TrainingParallelismPolicy()
        workers = policy.recommend({"cn0001": 0.95, "cn0002": 0.9}, free_gpus=6)
        assert workers > 1

    def test_gpu_limit_respected(self):
        policy = TrainingParallelismPolicy()
        workers = policy.recommend({"cn0001": 0.95}, free_gpus=2)
        assert workers <= 2

    def test_no_data_stays_serial(self):
        assert TrainingParallelismPolicy().recommend({}, free_gpus=6) == 1

    def test_reduce_overhead_caps_workers(self):
        # Enormous reduce cost: parallelism never pays.
        params = DDMDParams(train_reduce_seconds=1000.0)
        assert _modeled_best_workers(6, params) == 1


class TestUtilizationAwarePlacement:
    def test_orders_by_pressure(self, env):
        from repro.platform import Cluster

        cluster = Cluster(env, summit_like(3))
        # Load node 0 heavily, node 1 lightly, node 2 idle.
        cluster.nodes[0].run_compute(cores=30, work=1000.0, mem_intensity=0.9)
        cluster.nodes[1].run_compute(cores=5, work=1000.0, mem_intensity=0.9)
        ranked = UtilizationAwarePlacement()(cluster.nodes)
        assert ranked[0] is cluster.nodes[2]
        assert ranked[-1] is cluster.nodes[0]


class TestController:
    @pytest.fixture
    def stack(self):
        from repro.soma import SomaConfig, deploy_soma

        session = Session(cluster_spec=summit_like(4), seed=3)
        client = Client(session)
        env = session.env
        box = {}

        def main(env):
            pilot = yield from client.submit_pilot(
                PilotDescription(nodes=2, agent_nodes=1)
            )
            box["deployment"] = yield from deploy_soma(
                client,
                pilot,
                SomaConfig(
                    namespaces=("workflow", "hardware"),
                    monitors=("proc",),
                    monitoring_frequency=20.0,
                ),
            )

        env.run(env.process(main(env)))
        return session, client, box["deployment"]

    def test_observe_and_recommend(self, stack):
        session, client, deployment = stack
        controller = AdaptiveController(client, deployment)
        env = session.env

        def main(env):
            tasks = client.submit_tasks(
                [
                    TaskDescription(
                        name=f"t{r}", model=FixedDurationModel(600.0 / r),
                        ranks=r,
                    )
                    for r in (10, 20)
                ]
            )
            yield from client.wait_tasks(tasks)
            controller.observe_tasks(tasks)
            return controller.recommended_ranks()

        choice = env.run(env.process(main(env)))
        assert choice in (10, 20)
        assert controller.decisions
        client.close()

    def test_training_recommendation_uses_live_data(self, stack):
        session, client, deployment = stack
        controller = AdaptiveController(client, deployment)
        env = session.env

        def main(env):
            yield env.timeout(65)  # let hardware samples accumulate
            return controller.recommend_training_workers(window=100.0)

        workers = env.run(env.process(main(env)))
        # Idle machine: high headroom, plenty of GPUs -> parallel.
        assert workers > 1
        client.close()

    def test_placement_hook_install(self, stack):
        session, client, deployment = stack
        client.agent.scheduler.set_node_ranker(UtilizationAwarePlacement())
        assert client.agent.scheduler._node_ranker is not None
        client.agent.scheduler.set_node_ranker(None)
        assert client.agent.scheduler._node_ranker is None
        client.close()

    def test_recommended_ranks_dedupes_unchanged_choice(self, stack):
        session, client, deployment = stack
        controller = AdaptiveController(client, deployment)
        controller.rank_policy.observe(20, 100.0)
        controller.rank_policy.observe(41, 80.0)
        first = controller.recommended_ranks()
        assert first is not None
        for _ in range(5):  # polling must not flood the decision log
            assert controller.recommended_ranks() == first
        rank_decisions = [
            d for d in controller.decisions if d["kind"] == "rank_tuning"
        ]
        assert len(rank_decisions) == 1
        client.close()

    def test_apply_findings_closes_the_loop(self, stack):
        session, client, deployment = stack
        controller = AdaptiveController(client, deployment)
        healthy = controller.apply_findings([])
        # 1 compute node x 6 GPUs, no adverse findings: fan out.
        assert healthy["training_workers"] == 6
        assert healthy["monitor_period"] == pytest.approx(20.0)
        controller.apply_findings([])  # unchanged outcome: no new entry
        congested = controller.apply_findings(["rpc_queueing"])
        assert congested["training_workers"] == 6
        assert congested["monitor_period"] == pytest.approx(40.0)
        starved = controller.apply_findings(["scheduler_starvation"])
        assert starved["training_workers"] == 1
        detections = [
            d for d in controller.decisions if d["kind"] == "detection"
        ]
        assert len(detections) == 3
        assert detections[1]["findings"] == ["rpc_queueing"]
        client.close()


class TestDetectionDrivenPolicy:
    def test_healthy_run_fans_out_to_modeled_best(self):
        policy = DetectionDrivenPolicy()
        # 260/6 + 7*log2(7) beats every smaller worker count.
        assert policy.recommend_training_workers([], free_gpus=12) == 6

    def test_gpu_budget_caps_fan_out(self):
        policy = DetectionDrivenPolicy()
        assert policy.recommend_training_workers([], free_gpus=3) == 3
        assert policy.recommend_training_workers([], free_gpus=0) == 1

    def test_reduce_overhead_can_beat_fan_out(self):
        params = DDMDParams(train_reduce_seconds=200.0, train_gpu_seconds=260.0)
        assert _modeled_best_workers(6, params) == 1

    @pytest.mark.parametrize(
        "kind", ("cpu_oversubscription", "scheduler_starvation")
    )
    def test_capacity_pressure_forces_serial(self, kind):
        policy = DetectionDrivenPolicy()
        assert policy.recommend_training_workers([kind], free_gpus=12) == 1

    def test_finding_objects_and_strings_both_accepted(self):
        from repro.analysis.bottleneck import Finding

        finding = Finding(
            kind="cpu_oversubscription",
            detector="cpu-oversubscription",
            where="cn0002",
            start=0.0,
            end=300.0,
            severity=2.0,
            evidence={},
            threshold={},
            action="",
        )
        policy = DetectionDrivenPolicy()
        assert policy.recommend_training_workers([finding], free_gpus=12) == 1

    def test_queueing_backs_off_monitoring(self):
        policy = DetectionDrivenPolicy()
        assert policy.recommend_monitor_period(
            ["rpc_queueing"], current=60.0
        ) == pytest.approx(120.0)
        # Capped at the maximum period.
        assert policy.recommend_monitor_period(
            ["rpc_queueing"], current=200.0
        ) == pytest.approx(240.0)

    def test_quiet_run_keeps_period_floored(self):
        policy = DetectionDrivenPolicy()
        assert policy.recommend_monitor_period([], current=60.0) == 60.0
        assert policy.recommend_monitor_period([], current=1.0) == 10.0
