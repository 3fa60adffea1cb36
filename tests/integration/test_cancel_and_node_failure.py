"""Cancellation and node-failure behaviour across the stack."""


from repro.platform import NodeFailure, summit_like
from repro.rp import (
    Client,
    ComputeModel,
    FixedDurationModel,
    PilotDescription,
    Session,
    TaskDescription,
    TaskState,
)


def boot(nodes=2, seed=1):
    session = Session(cluster_spec=summit_like(nodes + 1), seed=seed)
    client = Client(session)
    env = session.env

    def main(env):
        pilot = yield from client.submit_pilot(
            PilotDescription(nodes=nodes, agent_nodes=1)
        )
        return pilot

    pilot = env.run(env.process(main(env)))
    return session, client, pilot


class TestCancellation:
    def test_cancel_running_task(self):
        session, client, pilot = boot()
        env = session.env

        def main(env):
            tasks = client.submit_tasks(
                [TaskDescription(model=ComputeModel(1000.0), ranks=10)]
            )
            yield env.timeout(20)
            assert tasks[0].state == TaskState.AGENT_EXECUTING
            client.cancel_tasks(tasks)
            yield from client.wait_tasks(tasks)
            return tasks[0]

        task = env.run(env.process(main(env)))
        assert task.state == TaskState.CANCELED
        # Resources returned after the cancel.
        for node in pilot.compute_nodes:
            assert node.free_cores == node.total_cores
        # No phantom compute left running on the nodes.
        for node in pilot.compute_nodes:
            assert node.busy_cores.value == 0
        client.close()

    def test_cancel_waiting_task_lets_queue_advance(self):
        session, client, pilot = boot(nodes=1)
        env = session.env

        def main(env):
            blocker = client.submit_tasks(
                [TaskDescription(model=FixedDurationModel(50.0), ranks=42)]
            )
            # Let the blocker reach the agent and claim the node before
            # the second task is even submitted.
            yield env.timeout(5)
            assert blocker[0].state == TaskState.AGENT_EXECUTING
            waiting = client.submit_tasks(
                [TaskDescription(model=FixedDurationModel(5.0), ranks=42)]
            )
            yield env.timeout(10)
            client.cancel_tasks(waiting)
            yield from client.wait_tasks(blocker + waiting)
            return blocker[0], waiting[0]

        blocker, waiting = env.run(env.process(main(env)))
        assert blocker.state == TaskState.DONE
        assert waiting.state == TaskState.CANCELED
        client.close()

    def test_cancel_between_placement_and_launch_is_not_a_failure(self):
        session = Session(cluster_spec=summit_like(4), seed=1)
        client = Client(session)
        env = session.env
        pilot = env.run(
            env.process(
                client.submit_pilot(PilotDescription(nodes=2, agent_nodes=1))
            )
        )
        (task,) = client.submit_tasks(
            [TaskDescription(name="victim", model=FixedDurationModel(5.0))]
        )
        # Placed, but no executor process exists yet to interrupt, so the
        # cancel finalizes the task itself.
        while task.state != TaskState.AGENT_EXECUTING_PENDING:
            env.step()
        client.cancel_tasks([task])
        env.run(until=env.now + 30.0)
        executor = client.agent.executor
        assert task.state == TaskState.CANCELED
        assert task.exception is None
        assert (executor.launched, executor.completed, executor.failed) == (0, 0, 0)
        for node in pilot.compute_nodes:
            assert node.free_cores == node.total_cores

        def after(env):
            tasks = client.submit_tasks(
                [TaskDescription(name="after", model=FixedDurationModel(5.0))]
            )
            yield from client.wait_tasks(tasks)
            return tasks[0]

        assert env.run(env.process(after(env))).state == TaskState.DONE
        client.close()

    def test_cancel_final_task_is_noop(self):
        session, client, _ = boot()
        env = session.env

        def main(env):
            tasks = client.submit_tasks(
                [TaskDescription(model=FixedDurationModel(1.0))]
            )
            yield from client.wait_tasks(tasks)
            client.cancel_tasks(tasks)  # no effect, no exception
            return tasks[0]

        task = env.run(env.process(main(env)))
        assert task.state == TaskState.DONE
        client.close()


class TestNodeFailure:
    def test_task_on_failed_node_fails(self):
        session, client, pilot = boot(nodes=2)
        env = session.env

        def main(env):
            tasks = client.submit_tasks(
                [
                    TaskDescription(
                        name="victim",
                        model=ComputeModel(500.0),
                        ranks=10,
                        multi_node=False,
                    )
                ]
            )
            yield env.timeout(60)
            victim_node = session.cluster.node_by_name(tasks[0].nodelist[0])
            victim_node.fail()
            yield from client.wait_tasks(tasks)
            return tasks[0]

        task = env.run(env.process(main(env)))
        assert task.state == TaskState.FAILED
        assert isinstance(task.exception, NodeFailure)
        client.close()

    def test_scheduler_avoids_failed_node(self):
        session, client, pilot = boot(nodes=2)
        env = session.env
        dead = pilot.compute_nodes[0]
        dead.fail()

        def main(env):
            tasks = client.submit_tasks(
                [
                    TaskDescription(
                        name=f"t{i}",
                        model=FixedDurationModel(3.0),
                        ranks=4,
                        multi_node=False,
                    )
                    for i in range(4)
                ]
            )
            yield from client.wait_tasks(tasks)
            return tasks

        tasks = env.run(env.process(main(env)))
        for task in tasks:
            assert task.state == TaskState.DONE
            assert dead.name not in task.nodelist
        client.close()

    def test_survivors_unaffected_by_failure(self):
        session, client, pilot = boot(nodes=2)
        env = session.env

        def main(env):
            a = client.submit_tasks(
                [
                    TaskDescription(
                        name="a",
                        model=FixedDurationModel(100.0),
                        ranks=10,
                        multi_node=False,
                        tags={"node": pilot.compute_nodes[0].name},
                    )
                ]
            )
            b = client.submit_tasks(
                [
                    TaskDescription(
                        name="b",
                        model=FixedDurationModel(100.0),
                        ranks=10,
                        multi_node=False,
                        tags={"node": pilot.compute_nodes[1].name},
                    )
                ]
            )
            yield env.timeout(60)
            pilot.compute_nodes[0].fail()
            yield from client.wait_tasks(a + b)
            return a[0], b[0]

        a, b = env.run(env.process(main(env)))
        assert a.state == TaskState.FAILED
        assert b.state == TaskState.DONE
        client.close()
