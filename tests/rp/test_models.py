"""Generic task models: fixed duration, compute, service, failing."""

import pytest

from repro.platform import summit_like
from repro.rp import (
    ComputeModel,
    ExecutionContext,
    FailingModel,
    FixedDurationModel,
    RankProfile,
    Session,
    Task,
    TaskDescription,
    TaskModel,
    TaskResult,
)


def make_ctx(session, cores=4, gpus=0):
    node = session.cluster.nodes[0]
    allocation = node.allocate(cores, gpus, owner="test")
    task = Task(
        session.env, "task.000000", TaskDescription(name="t", ranks=1,
                                                    cores_per_rank=cores),
        session.transitions,
    )
    return ExecutionContext(
        env=session.env,
        task=task,
        placements=[allocation],
        network=session.cluster.network,
        rng=session.rng,
        session=session,
    )


@pytest.fixture
def session():
    return Session(cluster_spec=summit_like(2), seed=1)


class TestFixedDurationModel:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FixedDurationModel(-1.0)

    def test_cpu_busy_shows_in_meter(self, session):
        ctx = make_ctx(session)
        model = FixedDurationModel(5.0, cpu_busy=True)
        result = session.env.run(session.env.process(model.execute(ctx)))
        assert result.exit_code == 0
        assert ctx.nodes[0].busy_cores.integral == pytest.approx(20.0)

    def test_cpu_idle_variant(self, session):
        ctx = make_ctx(session)
        model = FixedDurationModel(5.0, cpu_busy=False)
        session.env.run(session.env.process(model.execute(ctx)))
        assert ctx.nodes[0].busy_cores.integral == 0.0
        assert session.env.now == pytest.approx(5.0)


class TestComputeModel:
    def test_duration_equals_work_uncontended(self, session):
        ctx = make_ctx(session)
        model = ComputeModel(12.0, mem_intensity=0.4)
        session.env.run(session.env.process(model.execute(ctx)))
        assert session.env.now == pytest.approx(12.0)


class TestFailingModel:
    def test_nonzero_exit(self, session):
        ctx = make_ctx(session)
        result = session.env.run(
            session.env.process(FailingModel(2.0).execute(ctx))
        )
        assert result.exit_code == 1
        assert session.env.now == pytest.approx(2.0)


class TestBaseModel:
    def test_abstract_execute(self, session):
        ctx = make_ctx(session)
        with pytest.raises(NotImplementedError):
            session.env.run(session.env.process(TaskModel().execute(ctx)))


class TestExecutionContext:
    def test_rank_map_covers_all_ranks(self, session):
        node = session.cluster.nodes[0]
        a1 = node.allocate(4, owner="t")
        a2 = session.cluster.nodes[1].allocate(8, owner="t")
        task = Task(
            session.env,
            "task.000001",
            TaskDescription(ranks=6, cores_per_rank=2),
            session.transitions,
        )
        ctx = ExecutionContext(
            env=session.env,
            task=task,
            placements=[a1, a2],
            network=session.cluster.network,
            rng=session.rng,
        )
        rank_map = ctx.rank_map()
        assert [r for r, _ in rank_map] == list(range(6))
        assert ctx.ranks_on(a1) == 2  # 4 cores / 2 per rank
        assert ctx.ranks_on(a2) == 4
        assert ctx.num_nodes == 2
        assert [node.name for node in ctx.nodes] == ["cn0000", "cn0001"]

    def test_stable_rng_is_deterministic(self, session):
        ctx = make_ctx(session)
        a = ctx.stable_rng().normal()
        b = ctx.stable_rng().normal()
        assert a == b  # fresh generator with the same seed each call

    def test_stable_rng_differs_per_task_name(self, session):
        ctx = make_ctx(session)
        other = Session(cluster_spec=summit_like(2), seed=1)
        assert session.stable_rng("a").normal() != session.stable_rng(
            "b"
        ).normal()
        # Same (seed, tag) across sessions -> same stream.
        assert session.stable_rng("a").normal() == other.stable_rng(
            "a"
        ).normal()

    def test_stable_rng_without_session_falls_back(self, session):
        ctx = make_ctx(session)
        ctx.session = None
        assert ctx.stable_rng() is ctx.rng


class TestResultTypes:
    def test_rank_profile_total(self):
        profile = RankProfile(
            rank=0, hostname="cn0000",
            seconds_by_region={"a": 1.0, "b": 2.0},
        )
        assert profile.total() == 3.0

    def test_task_result_defaults(self):
        result = TaskResult()
        assert result.exit_code == 0
        assert result.rank_profiles == []
        assert result.data == {}
