"""Failure injection: task failures, service death, monitor resilience."""

import pytest

from repro.platform import summit_like
from repro.rp import (
    Client,
    FailingModel,
    FixedDurationModel,
    PilotDescription,
    Session,
    TaskDescription,
    TaskState,
)
from repro.soma import HARDWARE, SomaConfig, WORKFLOW, deploy_soma


def boot(nodes=2, seed=1, soma=None):
    session = Session(cluster_spec=summit_like(nodes + 1), seed=seed)
    client = Client(session)
    env = session.env
    box = {}

    def main(env):
        pilot = yield from client.submit_pilot(
            PilotDescription(nodes=nodes, agent_nodes=1)
        )
        box["pilot"] = pilot
        if soma is not None:
            box["deployment"] = yield from deploy_soma(client, pilot, soma)

    env.run(env.process(main(env)))
    return session, client, box


class TestTaskFailures:
    def test_failed_task_does_not_poison_others(self):
        session, client, _ = boot()
        env = session.env

        def main(env):
            tasks = client.submit_tasks(
                [
                    TaskDescription(name="bad", model=FailingModel(1.0)),
                    TaskDescription(
                        name="good", model=FixedDurationModel(2.0)
                    ),
                ]
            )
            yield from client.wait_tasks(tasks)
            return {t.description.name: t for t in tasks}

        tasks = env.run(env.process(main(env)))
        assert tasks["bad"].state == TaskState.FAILED
        assert tasks["good"].state == TaskState.DONE
        client.close()

    def test_failed_task_releases_resources(self):
        session, client, box = boot()
        env = session.env

        def main(env):
            tasks = client.submit_tasks(
                [
                    TaskDescription(
                        name="bad", model=FailingModel(1.0), ranks=40
                    )
                ]
            )
            yield from client.wait_tasks(tasks)

        env.run(env.process(main(env)))
        for node in box["pilot"].compute_nodes:
            assert node.free_cores == node.total_cores
        client.close()

    def test_model_exception_becomes_failed_not_crash(self):
        from repro.rp.model import TaskModel

        class BuggyModel(TaskModel):
            def execute(self, ctx):
                yield ctx.env.timeout(1.0)
                raise RuntimeError("model bug")

        session, client, _ = boot()
        env = session.env

        def main(env):
            tasks = client.submit_tasks(
                [TaskDescription(name="buggy", model=BuggyModel())]
            )
            yield from client.wait_tasks(tasks)
            return tasks[0]

        task = env.run(env.process(main(env)))
        assert task.state == TaskState.FAILED
        assert isinstance(task.exception, RuntimeError)
        client.close()

    def test_runtime_error_outside_the_model_propagates(self):
        session, client, _ = boot()
        env = session.env
        updater = client.agent.updater
        record_event = updater.record_event

        def broken_record_event(task, name, node=""):
            if name == "launch_start":
                raise RuntimeError("executor bug")
            return record_event(task, name, node=node)

        updater.record_event = broken_record_event
        client.submit_tasks([TaskDescription(name="t", model=FixedDurationModel(1.0))])
        with pytest.raises(RuntimeError, match="executor bug"):
            env.run(until=env.now + 30.0)
        assert client.agent.executor.failed == 0

    def test_failure_visible_in_monitoring(self):
        soma = SomaConfig(
            namespaces=(WORKFLOW, HARDWARE),
            monitors=("rp",),
            monitoring_frequency=10.0,
        )
        session, client, box = boot(soma=soma)
        env = session.env

        def main(env):
            tasks = client.submit_tasks(
                [TaskDescription(name="bad", model=FailingModel(2.0))]
            )
            yield from client.wait_tasks(tasks)
            yield env.timeout(15)

        env.run(env.process(main(env)))
        from repro.soma import workflow_summary_series

        summaries = workflow_summary_series(
            box["deployment"].store(WORKFLOW)
        )
        assert summaries[-1]["failed"] >= 1
        client.close()


class TestServiceDeath:
    def test_monitors_survive_service_shutdown(self):
        """If the service dies mid-run, clients surface failures but
        the workflow itself keeps going."""
        soma = SomaConfig(
            namespaces=(WORKFLOW, HARDWARE),
            monitors=("proc",),
            monitoring_frequency=5.0,
        )
        session, client, box = boot(soma=soma)
        env = session.env
        deployment = box["deployment"]

        def main(env):
            # Kill the service servers mid-run.
            yield env.timeout(12)
            for server in deployment.service_model.servers.values():
                server.shutdown()
            tasks = client.submit_tasks(
                [TaskDescription(model=FixedDurationModel(20.0))]
            )
            yield from client.wait_tasks(tasks)
            yield env.timeout(12)
            return tasks[0]

        task = env.run(env.process(main(env)))
        assert task.state == TaskState.DONE
        models = deployment.hw_monitor_models()
        assert any(m.client.publish_failures > 0 for m in models)
        client.close()
