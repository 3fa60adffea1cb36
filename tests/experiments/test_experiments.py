"""Experiment harness configuration and small-scale behaviour."""

import pytest

from repro.experiments import (
    DDMD_ADAPTIVE_TRAIN_COUNTS,
    DDMD_TUNING_PHASES,
    OVERLOAD,
    SCALING_A,
    SCALING_B,
    TUNING,
    adaptive_experiment,
    build_pipelines,
    run_ddmd_experiment,
    run_workflow,
    tuning_experiment,
)
from repro.experiments.facility import (
    FacilitySpec,
    _family_scale,
    facility_chaos_plan,
    run_facility,
)
from repro.platform import summit_like
from repro.rp import FixedDurationModel, Session, TaskDescription
from repro.soma.sharding import HashRing


class TestTable1Configs:
    def test_tuning_row(self):
        assert TUNING.num_tasks == 4
        assert TUNING.compute_nodes == 4
        assert TUNING.rank_configs == (20, 41, 82, 164)
        assert TUNING.soma_ranks_per_namespace == 1
        assert set(TUNING.monitors) == {"proc", "rp"}
        assert TUNING.use_tau

    def test_overload_row(self):
        assert OVERLOAD.num_tasks == 80
        assert OVERLOAD.compute_nodes == 10
        assert OVERLOAD.agent_nodes == 1


class TestTable2Configs:
    def test_tuning_phases(self):
        exp = tuning_experiment()
        assert exp.phases == 6
        assert exp.pipelines == 1
        assert exp.app_nodes == 2
        assert exp.soma_nodes == 1
        assert len(DDMD_TUNING_PHASES) == 6
        sim_cores = [p["cores_per_sim_task"] for p in DDMD_TUNING_PHASES]
        assert sim_cores == [1, 3, 7, 1, 3, 7]

    def test_adaptive_train_counts(self):
        exp = adaptive_experiment()
        assert exp.phases == 4
        counts = [
            exp.params_for_phase(i).num_train_tasks for i in range(4)
        ]
        assert counts == list(DDMD_ADAPTIVE_TRAIN_COUNTS) == [1, 2, 4, 6]

    def test_scaling_a_ranks(self):
        for soma_nodes, total_ranks in ((1, 16), (2, 32), (4, 64)):
            exp = SCALING_A(soma_nodes, "shared")
            assert exp.soma_config().total_ranks == total_ranks
            assert exp.pipelines == 64

    def test_scaling_b_geometry(self):
        for pipes, soma_nodes in ((64, 4), (128, 7), (256, 13), (512, 25)):
            exp = SCALING_B(pipes, "exclusive")
            assert exp.app_nodes == pipes
            assert exp.soma_nodes == soma_nodes
            assert exp.soma_config().total_ranks == pipes // 2 * 2

    def test_scaling_b_none_has_no_soma(self):
        exp = SCALING_B(64, "none")
        assert exp.soma_nodes == 0
        assert exp.soma_config() is None

    def test_scaling_b_frequent_frequency(self):
        assert SCALING_B(64, "exclusive", frequent=True).monitoring_frequency == 10.0
        assert SCALING_B(64, "exclusive").monitoring_frequency == 60.0

    def test_build_pipelines_shape(self):
        exp = SCALING_B(4, "none")
        pipelines = build_pipelines(exp)
        assert len(pipelines) == 4
        assert all(len(p.stages) == 4 for p in pipelines)
        exp6 = tuning_experiment()
        assert len(build_pipelines(exp6)[0].stages) == 24


class TestHarness:
    def test_run_workflow_baseline(self):
        def workload(client, deployment):
            tasks = client.submit_tasks(
                [TaskDescription(model=FixedDurationModel(3.0))]
            )
            yield from client.wait_tasks(tasks)
            return "payload-value"

        result = run_workflow(workload, nodes=1, soma_config=None, seed=1)
        assert result.payload == "payload-value"
        assert result.makespan > 3.0
        assert not result.deployment.enabled
        assert len(result.application_tasks) == 1

    def test_adaptive_analysis_between_phases(self):
        exp = adaptive_experiment().with_updates(
            phases=2,
            monitoring_frequency=15.0,
            phase_overrides=({"num_train_tasks": 1}, {"num_train_tasks": 2}),
        )
        res = run_ddmd_experiment(exp, seed=3, adaptive_analysis=True)
        analyses = res.payload["analyses"]
        assert len(analyses) == 2
        assert analyses[0]["phase"] == 0
        # Per-resource headroom per node, each component within [0, 1].
        assert analyses[-1]["headroom"]
        for value in analyses[-1]["headroom"].values():
            assert set(value) == {"cpu", "gpu"}
            assert 0.0 <= value["cpu"] <= 1.0
            assert 0.0 <= value["gpu"] <= 1.0


class TestFacilitySpec:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("pilots", 0),  # the chaos plan has no first tenant to aim at
            ("pilots", -3),  # would silently run no tasks
            ("service_nodes", 0),  # was clamped to one node
            ("service_nodes", -2),
            ("tasks_per_pilot", 0),
            ("tasks_per_pilot", -1),  # would silently run no tasks
            ("concurrency", 0),  # no worker ever takes a task
            ("period", 0.0),  # the monitor loop never leaves one timestamp
            ("period", -5.0),
            ("period", float("nan")),  # NaN passes `<= 0`; the run would hang
            ("period", float("inf")),  # the clock would jump to infinity
            ("shards", 0),
            ("admission_rate", 0.0),
            ("admission_rate", float("nan")),
        ],
    )
    def test_invalid_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            FacilitySpec(**{field: value})

    def test_defaults_and_no_admission_control_are_valid(self):
        assert FacilitySpec().admission_rate is None
        assert FacilitySpec(admission_rate=0.5).admission_rate == 0.5


@pytest.mark.parametrize("family", ["openfoam", "ddmd"])
def test_facility_duration_array_equals_scalar_draws(family):
    # A pilot draws its durations as one array; the reference is one
    # scalar draw per task, which must give the same doubles.
    scale = _family_scale(family)
    session = Session(cluster_spec=summit_like(1), seed=3)
    array_rng = session.stable_rng("facility:t000")
    scalar_rng = session.stable_rng("facility:t000")
    drawn = [float(d) for d in scale * (0.5 + array_rng.random(500))]
    assert drawn == [scale * (0.5 + float(scalar_rng.random())) for _ in range(500)]


def test_facility_run_builds_one_ring_per_config(monkeypatch):
    # One ring for the chaos plan's config and one for the run's, shared
    # by the service model and every pilot's client.
    built = []
    init = HashRing.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HashRing, "__init__", counting_init)
    spec = FacilitySpec(
        pilots=6,
        shards=2,
        service_nodes=2,
        tasks_per_pilot=4,
        concurrency=2,
        period=30.0,
    )
    result = run_facility(spec, seed=3, fault_plan=facility_chaos_plan(spec))
    assert result.samples_generated == 24
    assert len(built) == 2
