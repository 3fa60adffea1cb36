"""Unit tests for RAPTOR, RP's master/worker function-task subsystem."""

from repro.platform import summit_like
from repro.rp import Client, PilotDescription, Session, TaskState
from repro.rp.raptor import FunctionCall, RaptorMaster


def boot(nodes=1, seed=3):
    session = Session(cluster_spec=summit_like(nodes + 1), seed=seed)
    client = Client(session)
    env = session.env
    box = {}

    def main(env):
        box["pilot"] = yield from client.submit_pilot(
            PilotDescription(nodes=nodes, agent_nodes=1)
        )

    env.run(env.process(main(env)))
    return session, client, box


class TestDispatch:
    def test_map_completes_all_calls_with_fewer_workers(self):
        session, client, box = boot()
        env = session.env
        master = RaptorMaster(env)
        workers = client.submit_tasks(
            [master.worker_description(cores=4, name=f"w{i}") for i in range(2)]
        )

        def main(env):
            calls = [FunctionCall(duration=1.0) for _ in range(6)]
            done = yield from master.map(calls)
            return done

        calls = env.run(env.process(main(env)))
        # Uids come from the run's environment: calls as submitted.
        assert [c.uid for c in calls] == list(range(6))
        assert sorted(master._worker_inboxes) == [0, 1]
        assert master.num_workers == 2
        assert master.dispatched == 6
        assert master.completed == 6
        assert master.backlog == 0
        assert all(c.finished_at is not None for c in calls)
        assert all(c.finished_at >= c.submitted_at for c in calls)
        client.close()
        env.run()  # drain the shutdown interrupts
        assert all(w.state == TaskState.DONE for w in workers)

    def test_backlog_queues_when_workers_are_busy(self):
        session, client, box = boot()
        env = session.env
        master = RaptorMaster(env)
        client.submit_tasks([master.worker_description(cores=2)])

        def main(env):
            # Give the single worker time to register.
            yield env.timeout(5.0)
            events = [
                master.submit(FunctionCall(duration=2.0)) for _ in range(3)
            ]
            # One call dispatched immediately, the rest queue.
            assert master.dispatched == 1
            assert master.backlog == 2
            for event in events:
                yield event
            return events

        env.run(env.process(main(env)))
        assert master.backlog == 0
        assert master.completed == 3
        client.close()

    def test_fifo_completion_on_a_single_worker(self):
        session, client, box = boot()
        env = session.env
        master = RaptorMaster(env)
        client.submit_tasks([master.worker_description(cores=2)])

        def main(env):
            calls = [FunctionCall(duration=0.5) for _ in range(4)]
            done = yield from master.map(calls)
            return done

        calls = env.run(env.process(main(env)))
        finishes = [c.finished_at for c in calls]
        assert finishes == sorted(finishes)
        assert finishes[0] < finishes[-1]  # sequential, not batched
        client.close()

    def test_worker_reuse_amortizes_launch_overhead(self):
        """Many short calls ride two launched worker tasks — the point
        of RAPTOR (Sec 2.1): function tasks skip per-task launch."""
        session, client, box = boot()
        env = session.env
        master = RaptorMaster(env)
        client.submit_tasks(
            [master.worker_description(name=f"w{i}") for i in range(2)]
        )

        def main(env):
            calls = [FunctionCall(duration=0.2) for _ in range(20)]
            yield from master.map(calls)

        env.run(env.process(main(env)))
        assert master.completed == 20
        assert master.num_workers == 2  # no extra tasks were launched
        client.close()
