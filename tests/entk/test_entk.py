"""EnTK layer: pipelines, stages, barriers, callbacks."""


from repro.entk import AppManager, Pipeline, Stage
from repro.platform import summit_like
from repro.rp import (
    Client,
    FixedDurationModel,
    PilotDescription,
    Session,
    TaskDescription,
)


def make_stack(nodes=2, seed=1):
    session = Session(cluster_spec=summit_like(nodes + 1), seed=seed)
    client = Client(session)
    env = session.env

    def boot(env):
        yield from client.submit_pilot(
            PilotDescription(nodes=nodes, agent_nodes=1)
        )

    env.run(env.process(boot(env)))
    return session, client


def td(name, duration=2.0, **kwargs):
    return TaskDescription(
        name=name, model=FixedDurationModel(duration), **kwargs
    )


class TestStructure:
    def test_stage_collects_descriptions(self):
        stage = Stage(name="s1", tasks=[td("a")])
        stage.add_task(td("b"))
        assert len(stage.task_descriptions) == 2

    def test_pipeline_counts_tasks(self):
        pipeline = Pipeline(
            stages=[Stage(tasks=[td("a"), td("b")]), Stage(tasks=[td("c")])]
        )
        assert pipeline.num_tasks == 3

    def test_uids_unique(self):
        # Minted from the run's environment when the AppManager receives
        # the pipelines: each pipeline, then its stages, in list order.
        for _run in range(2):
            session, client = make_stack()
            pipelines = [
                Pipeline(stages=[Stage(tasks=[td(f"p{i}s{j}")]) for j in range(2)])
                for i in range(2)
            ]
            named = Stage(name="named", tasks=[td("n")])
            pipelines[1].add_stage(named)
            env = session.env
            env.run(env.process(AppManager(client).run(pipelines)))
            assert [p.uid for p in pipelines] == ["pipeline.0000", "pipeline.0001"]
            stages = [s for p in pipelines for s in p.stages]
            assert [s.uid for s in stages] == [f"stage.{i:06d}" for i in range(5)]
            assert pipelines[0].name == "pipeline.0000"
            assert (stages[0].name, named.name) == ("stage.000000", "named")
            client.close()


class TestExecution:
    def test_stages_run_in_order(self):
        session, client = make_stack()
        env = session.env
        pipeline = Pipeline(
            stages=[
                Stage(name="first", tasks=[td("a", 3.0)]),
                Stage(name="second", tasks=[td("b", 3.0)]),
            ]
        )
        manager = AppManager(client)

        def main(env):
            yield from manager.run([pipeline])

        env.run(env.process(main(env)))
        first, second = pipeline.stages
        assert first.finished_at <= second.started_at
        assert pipeline.succeeded
        assert pipeline.duration > 6.0
        client.close()

    def test_pipelines_run_concurrently(self):
        session, client = make_stack(nodes=2)
        env = session.env
        pipelines = [
            Pipeline(stages=[Stage(tasks=[td(f"p{i}", 10.0)])])
            for i in range(2)
        ]
        manager = AppManager(client)

        def main(env):
            yield from manager.run(pipelines)

        env.run(env.process(main(env)))
        starts = [p.started_at for p in pipelines]
        assert max(starts) - min(starts) < 1.0
        # Concurrent: total wall << serial sum.
        durations = manager.pipeline_durations()
        assert len(durations) == 2
        overlap = max(p.finished_at for p in pipelines) - min(starts)
        assert overlap < sum(durations)
        client.close()

    def test_stage_post_exec_callback(self):
        session, client = make_stack()
        env = session.env
        called = []
        stage = Stage(
            name="cb",
            tasks=[td("x", 1.0)],
            post_exec=lambda s: called.append(s.name),
        )
        manager = AppManager(client)

        def main(env):
            yield from manager.run([Pipeline(stages=[stage])])

        env.run(env.process(main(env)))
        assert called == ["cb"]
        client.close()

    def test_between_phases_callback(self):
        session, client = make_stack()
        env = session.env
        phases_seen = []

        def between(pipeline, phase):
            phases_seen.append(phase)

        stages = [Stage(tasks=[td(f"s{i}", 1.0)]) for i in range(4)]
        manager = AppManager(
            client, stages_per_phase=2, between_phases=between
        )

        def main(env):
            yield from manager.run([Pipeline(stages=stages)])

        env.run(env.process(main(env)))
        assert phases_seen == [0, 1]
        client.close()

    def test_failed_task_recorded(self):
        from repro.rp import FailingModel

        session, client = make_stack()
        env = session.env
        stage = Stage(
            tasks=[
                TaskDescription(name="bad", model=FailingModel(1.0)),
                td("good", 1.0),
            ]
        )
        manager = AppManager(client)

        def main(env):
            yield from manager.run([Pipeline(stages=[stage])])

        env.run(env.process(main(env)))
        assert len(manager.failed_tasks) == 1
        assert not stage.succeeded
        client.close()

    def test_stage_durations_query(self):
        session, client = make_stack()
        env = session.env
        pipeline = Pipeline(
            stages=[
                Stage(name="sim", tasks=[td("a", 2.0)]),
                Stage(name="train", tasks=[td("b", 2.0)]),
            ]
        )
        manager = AppManager(client)

        def main(env):
            yield from manager.run([pipeline])

        env.run(env.process(main(env)))
        assert len(manager.stage_durations("sim")) == 1
        assert len(manager.stage_durations()) == 2
        client.close()
