"""The application namespace: self-reported figures of merit."""

import pytest

from repro.platform import summit_like
from repro.rp import (
    Client,
    FixedDurationModel,
    PilotDescription,
    Session,
    TaskDescription,
)
from repro.soma import (
    APPLICATION,
    ApplicationMetrics,
    SomaConfig,
    deploy_soma,
    figure_of_merit_series,
)
from repro.workloads import DDMDParams, ddmd_phase_stages


@pytest.fixture
def stack():
    session = Session(cluster_spec=summit_like(4), seed=5)
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
                namespaces=("workflow", "hardware", "application"),
                monitors=(),
            ),
        )

    env.run(env.process(main(env)))
    return session, client, box["deployment"]


def test_record_and_flush(stack):
    session, client, deployment = stack
    env = session.env

    def main(env):
        metrics = ApplicationMetrics(session, "task.999999", deployment.config)
        metrics.record("fom", 1.5, unit="x/s")
        metrics.record("fom", 2.5, unit="x/s")
        ok = yield from metrics.flush()
        return ok, metrics.published_samples

    ok, published = env.run(env.process(main(env)))
    assert ok and published == 2
    store = deployment.store(APPLICATION)
    assert len(store) == 1
    series = figure_of_merit_series(store, "task.999999", "fom")
    assert [v for _, v in series] == [1.5, 2.5]
    client.close()


def test_flush_empty_is_noop(stack):
    session, client, deployment = stack
    env = session.env

    def main(env):
        metrics = ApplicationMetrics(session, "task.000042", deployment.config)
        ok = yield from metrics.flush()
        return ok

    assert env.run(env.process(main(env)))
    assert len(deployment.store(APPLICATION)) == 0
    client.close()


def test_instrumented_model_default_metric(stack):
    session, client, deployment = stack
    env = session.env

    def main(env):
        td = deployment.wrap_with_app_metrics(
            TaskDescription(name="plain", model=FixedDurationModel(10.0))
        )
        tasks = client.submit_tasks([td])
        yield from client.wait_tasks(tasks)
        return tasks[0]

    task = env.run(env.process(main(env)))
    store = deployment.store(APPLICATION)
    series = figure_of_merit_series(store, task.uid, "progress_rate")
    assert len(series) == 1
    assert series[0][1] > 0
    client.close()


def test_ddmd_sim_reports_atom_timesteps(stack):
    """The paper's example: MD reports atom-timesteps per second."""
    session, client, deployment = stack
    env = session.env
    params = DDMDParams(num_sim_tasks=2)

    def main(env):
        stages = dict(ddmd_phase_stages(params))
        tds = [
            deployment.wrap_with_app_metrics(td)
            for td in stages["simulation"]
        ]
        tasks = client.submit_tasks(tds)
        yield from client.wait_tasks(tasks)
        return tasks

    tasks = env.run(env.process(main(env)))
    store = deployment.store(APPLICATION)
    for task in tasks:
        series = figure_of_merit_series(
            store, task.uid, "atom_timesteps_per_s"
        )
        assert len(series) == 1
        assert series[0][1] > 0
    client.close()
