"""Client-side RP: pilot submission, task feed, wait semantics."""

import gc

import pytest

from repro.platform import summit_like
from repro.rp import (
    Client,
    FixedDurationModel,
    PilotDescription,
    PilotState,
    Session,
    TaskDescription,
    TaskState,
)
from repro.sim import Process


@pytest.fixture
def session():
    return Session(cluster_spec=summit_like(4), seed=1)


@pytest.fixture
def client(session):
    return Client(session)


def activate(client, nodes=2, **kwargs):
    def main(env):
        pilot = yield from client.submit_pilot(
            PilotDescription(nodes=nodes, agent_nodes=1, **kwargs)
        )
        return pilot

    env = client.session.env
    return env.run(env.process(main(env)))


class TestPilotLifecycle:
    def test_pilot_becomes_active(self, client):
        pilot = activate(client)
        assert pilot.state == PilotState.PMGR_ACTIVE
        assert pilot.active.triggered

    def test_node_partition(self, client):
        pilot = activate(client, nodes=2)
        assert len(pilot.agent_nodes) == 1
        assert len(pilot.compute_nodes) == 2
        assert pilot.service_nodes == []
        assert pilot.agent_nodes[0].name == "cn0000"

    def test_bootstrap_takes_time(self, client):
        activate(client)
        env = client.session.env
        cfg = client.session.config
        assert env.now >= cfg.agent_bootstrap_time * 0.5

    def test_cancel_releases_allocation(self, client):
        pilot = activate(client)
        batch = client.session.cluster.batch
        assert batch.free_nodes == 1
        client.close()
        assert batch.free_nodes == 4
        assert pilot.state == PilotState.DONE

    def test_service_node_partition(self, session):
        client = Client(session)
        pilot = activate(client, nodes=1, service_nodes=2)
        assert len(pilot.service_nodes) == 2
        assert len(pilot.compute_nodes) == 1


class TestTaskSubmission:
    def test_submit_before_pilot_raises(self, client):
        with pytest.raises(RuntimeError):
            client.submit_tasks([TaskDescription()])

    def test_tasks_run_to_done(self, client):
        activate(client)
        env = client.session.env

        def main(env):
            tasks = client.submit_tasks(
                [
                    TaskDescription(
                        name=f"t{i}", model=FixedDurationModel(5.0)
                    )
                    for i in range(4)
                ]
            )
            yield from client.wait_tasks(tasks)
            return tasks

        tasks = env.run(env.process(main(env)))
        assert all(t.state == TaskState.DONE for t in tasks)
        assert all(t.execution_time is not None for t in tasks)

    def test_task_event_order_matches_listing1(self, client):
        activate(client)
        env = client.session.env

        def main(env):
            tasks = client.submit_tasks(
                [TaskDescription(model=FixedDurationModel(1.0))]
            )
            yield from client.wait_tasks(tasks)
            return tasks[0]

        task = env.run(env.process(main(env)))
        names = [e.event for e in task.events if e.event != "state"]
        assert names == [
            "launch_start",
            "exec_start",
            "rank_start",
            "rank_stop",
            "exec_stop",
            "launch_stop",
        ]
        times = [task.time_of(n) for n in names]
        assert times == sorted(times)

    def test_finished_task_processes_are_not_kept(self, client):
        activate(client)
        env = client.session.env

        def main(env):
            tasks = client.submit_tasks(
                [TaskDescription(model=FixedDurationModel(1.0)) for _ in range(4)]
            )
            yield from client.wait_tasks(tasks)
            return tasks

        tasks = env.run(env.process(main(env)))
        client.close()
        env.run()
        assert all(t.state == TaskState.DONE for t in tasks)
        # Each profile line is a row of its task's own history, and
        # reads back as that history's record.
        profiles = client.session.profiles
        history = {row: record for t in tasks for row, record in zip(t.rows, t.events)}
        assert all(row in history for row in profiles.rows)
        assert [history[row] for row in profiles.rows] == profiles.snapshot()
        gc.collect()
        assert not [
            obj
            for obj in gc.get_objects()
            if type(obj) is Process
            and obj.env is env
            and obj.name.startswith("exec-task.")
        ]

    def test_wait_tasks_with_already_final(self, client):
        activate(client)
        env = client.session.env

        def main(env):
            tasks = client.submit_tasks(
                [TaskDescription(model=FixedDurationModel(1.0))]
            )
            yield from client.wait_tasks(tasks)
            # Second wait on final tasks returns immediately.
            yield from client.wait_tasks(tasks)
            return True

        assert env.run(env.process(main(env)))

    def test_uids_are_sequential(self, client):
        activate(client)
        tasks = client.submit_tasks(
            [TaskDescription(model=FixedDurationModel(1.0)) for _ in range(3)]
        )
        assert [t.uid for t in tasks] == [
            "task.000000",
            "task.000001",
            "task.000002",
        ]

    def test_failed_task_reaches_failed_state(self, client):
        from repro.rp import FailingModel

        activate(client)
        env = client.session.env

        def main(env):
            tasks = client.submit_tasks(
                [TaskDescription(name="bad", model=FailingModel(1.0))]
            )
            yield from client.wait_tasks(tasks)
            return tasks[0]

        task = env.run(env.process(main(env)))
        assert task.state == TaskState.FAILED


class TestClientSideCancel:
    """Cancelling a task still in its client-side states finalizes it,
    and the feed drops it instead of advancing a final task."""

    @pytest.mark.parametrize("delay", [0.0, 0.03])
    def test_cancel_before_the_agent_sees_the_task(self, client, delay):
        activate(client)
        env = client.session.env

        def main(env):
            victim, other = client.submit_tasks(
                [
                    TaskDescription(name="victim", model=FixedDurationModel(1.0)),
                    TaskDescription(name="other", model=FixedDurationModel(5.0)),
                ]
            )
            if delay:
                yield env.timeout(delay)
            # Inside the jittered tmgr_latency (0.05 s +/- 25%).
            assert victim.state in (TaskState.NEW, TaskState.TMGR_SCHEDULING)
            client.cancel_tasks([victim])
            yield from client.wait_tasks([other])
            yield env.timeout(10.0)
            return victim, other

        victim, other = env.run(env.process(main(env)))
        assert victim.state == TaskState.CANCELED
        assert other.state == TaskState.DONE
        assert victim.uid not in client.agent.tasks
        assert victim.events[-1].state == TaskState.CANCELED
        last = [
            rec
            for rec in client.session.tracer.select(category="rp.state")
            if rec.name == victim.uid
        ][-1]
        assert last.data == {"state": TaskState.CANCELED}
