"""Service tasks: residency, scheduling-before-apps, shutdown."""

import pytest

from repro.platform import summit_like
from repro.rp import (
    Client,
    FixedDurationModel,
    PilotDescription,
    ServiceModel,
    Session,
    TaskDescription,
    TaskMode,
    TaskState,
)


class RecordingService(ServiceModel):
    """Service that records its lifecycle."""

    def __init__(self):
        self.events = []

    def setup(self, ctx):
        self.events.append(("setup", ctx.env.now))
        return
        yield

    def teardown(self, ctx):
        self.events.append(("teardown", ctx.env.now))


@pytest.fixture
def stack():
    session = Session(cluster_spec=summit_like(4), seed=1)
    client = Client(session)
    return session, client


def test_service_runs_for_whole_workflow(stack):
    session, client = stack
    env = session.env
    service = RecordingService()

    def main(env):
        yield from client.submit_pilot(
            PilotDescription(nodes=2, agent_nodes=1)
        )
        (svc_task,) = client.submit_tasks(
            [
                TaskDescription(
                    name="svc",
                    model=service,
                    mode=TaskMode.SERVICE,
                    ranks=1,
                    cores_per_rank=2,
                )
            ]
        )
        app_tasks = client.submit_tasks(
            [TaskDescription(model=FixedDurationModel(5.0))]
        )
        yield from client.wait_tasks(app_tasks)
        # The service is still resident after the app task finished.
        assert not svc_task.is_final
        assert ("setup", pytest.approx(env.now, abs=1e9)) or True
        return svc_task

    svc_task = env.run(env.process(main(env)))
    client.close()
    env.run()
    # Shutdown drove the service to DONE and ran teardown.
    assert svc_task.state == TaskState.DONE
    names = [name for name, _ in service.events]
    assert names == ["setup", "teardown"]


def test_service_scheduled_before_app_tasks(stack):
    session, client = stack
    env = session.env
    service = RecordingService()

    def main(env):
        yield from client.submit_pilot(PilotDescription(nodes=2))
        (svc_task,) = client.submit_tasks(
            [
                TaskDescription(
                    name="svc", model=service, mode=TaskMode.SERVICE
                )
            ]
        )
        apps = client.submit_tasks(
            [TaskDescription(model=FixedDurationModel(1.0))]
        )
        yield from client.wait_tasks(apps)
        return svc_task, apps[0]

    svc_task, app = env.run(env.process(main(env)))
    assert svc_task.time_of("AGENT_EXECUTING") <= app.time_of(
        "AGENT_EXECUTING"
    )
    client.close()


def test_service_holds_resources_until_shutdown(stack):
    session, client = stack
    env = session.env

    def main(env):
        pilot = yield from client.submit_pilot(PilotDescription(nodes=1))
        client.submit_tasks(
            [
                TaskDescription(
                    name="svc",
                    model=RecordingService(),
                    mode=TaskMode.SERVICE,
                    ranks=1,
                    cores_per_rank=10,
                )
            ]
        )
        apps = client.submit_tasks(
            [TaskDescription(model=FixedDurationModel(1.0))]
        )
        yield from client.wait_tasks(apps)
        return pilot

    pilot = env.run(env.process(main(env)))
    # Agent node still holds the 10 service cores.
    assert pilot.agent_nodes[0].free_cores == 42 - 10
    client.close()
    env.run()
    assert pilot.agent_nodes[0].free_cores == 42


def test_raptor_master_and_workers(stack):
    """RAPTOR: function calls amortize launch overhead over workers."""
    from repro.rp import FunctionCall, RaptorMaster

    session, client = stack
    env = session.env
    master = RaptorMaster(env)

    def main(env):
        yield from client.submit_pilot(PilotDescription(nodes=2))
        client.submit_tasks(
            [master.worker_description(cores=4) for _ in range(3)]
        )
        calls = [FunctionCall(duration=2.0) for _ in range(9)]
        done = yield from master.map(calls)
        return done

    calls = env.run(env.process(main(env)))
    assert all(c.finished_at is not None for c in calls)
    assert master.completed == 9
    assert master.num_workers == 3
    # 9 calls over 3 workers of 2s each: three rounds.
    spread = max(c.finished_at for c in calls) - min(
        c.finished_at for c in calls
    )
    assert spread >= 3.9
    client.close()
