"""Agent scheduler: placement invariants, pinning, sharing policy."""


from repro.platform import summit_like
from repro.rp import (
    Client,
    FixedDurationModel,
    PilotDescription,
    Session,
    TaskDescription,
    TaskMode,
    TaskState,
)
from repro.rp.task import Task


def run_pilot_with_tasks(
    descriptions,
    nodes=2,
    service_nodes=0,
    share=False,
    cluster_nodes=8,
    seed=1,
):
    session = Session(cluster_spec=summit_like(cluster_nodes), seed=seed)
    client = Client(session)
    env = session.env

    def main(env):
        pilot = yield from client.submit_pilot(
            PilotDescription(
                nodes=nodes,
                agent_nodes=1,
                service_nodes=service_nodes,
                share_service_nodes=share,
            )
        )
        tasks = client.submit_tasks(descriptions)
        app = [t for t in tasks if t.is_application]
        yield from client.wait_tasks(app)
        return pilot, tasks

    pilot, tasks = env.run(env.process(main(env)))
    client.close()
    return session, client, pilot, tasks


class TestPlacementInvariants:
    def test_no_core_oversubscription(self):
        # 5 tasks x 20 cores on 2 nodes (84 cores): must serialize.
        descriptions = [
            TaskDescription(
                name=f"t{i}", model=FixedDurationModel(10.0), ranks=20
            )
            for i in range(5)
        ]
        session, client, pilot, tasks = run_pilot_with_tasks(descriptions)
        # Reconstruct concurrent core usage from alloc/free traces.
        events = []
        for rec in session.tracer.select(category="rp.alloc"):
            task = client.task_manager.tasks[rec.name]
            start = task.time_of("AGENT_EXECUTING")
            stop = task.time_of("launch_stop")
            events.append((start, +len(rec.get("cores"))))
            events.append((stop, -len(rec.get("cores"))))
        events.sort()
        load, peak = 0, 0
        for _, delta in events:
            load += delta
            peak = max(peak, load)
        assert peak <= 2 * 42

    def test_single_node_task_never_spans(self):
        descriptions = [
            TaskDescription(
                name="gpu-task",
                model=FixedDurationModel(5.0),
                ranks=1,
                cores_per_rank=4,
                gpus_per_rank=1,
                multi_node=False,
            )
        ]
        _, _, _, tasks = run_pilot_with_tasks(descriptions)
        assert len(tasks[0].nodelist) == 1

    def test_multi_node_task_spans_when_needed(self):
        descriptions = [
            TaskDescription(
                name="big", model=FixedDurationModel(5.0), ranks=60
            )
        ]
        _, _, _, tasks = run_pilot_with_tasks(descriptions)
        assert len(tasks[0].nodelist) == 2

    def test_unschedulable_task_fails(self):
        descriptions = [
            TaskDescription(
                name="toobig",
                model=FixedDurationModel(5.0),
                ranks=1,
                cores_per_rank=43,  # more than any node has
                multi_node=False,
            ),
            TaskDescription(name="ok", model=FixedDurationModel(1.0)),
        ]
        _, _, _, tasks = run_pilot_with_tasks(descriptions)
        by_name = {t.description.name: t for t in tasks}
        assert by_name["toobig"].state == TaskState.FAILED
        assert by_name["ok"].state == TaskState.DONE


class TestPinningAndPolicy:
    def test_node_tag_pins_task(self):
        descriptions = [
            TaskDescription(
                name="pinned",
                model=FixedDurationModel(2.0),
                tags={"node": "cn0002"},
            )
        ]
        _, _, _, tasks = run_pilot_with_tasks(descriptions)
        assert tasks[0].nodelist == ["cn0002"]

    def test_colocate_agent_tag(self):
        descriptions = [
            TaskDescription(
                name="agent-side",
                model=FixedDurationModel(2.0),
                tags={"colocate": "agent"},
                mode=TaskMode.MONITOR,
            ),
            TaskDescription(name="app", model=FixedDurationModel(2.0)),
        ]
        session, client, pilot, tasks = run_pilot_with_tasks(descriptions)
        by_name = {t.description.name: t for t in tasks}
        assert by_name["agent-side"].nodelist == [pilot.agent_node.name]
        # Application tasks never land on the agent node.
        assert pilot.agent_node.name not in by_name["app"].nodelist

    def test_exclusive_mode_keeps_apps_off_service_nodes(self):
        descriptions = [
            TaskDescription(
                name=f"app{i}", model=FixedDurationModel(2.0), ranks=30
            )
            for i in range(4)
        ]
        _, client, pilot, tasks = run_pilot_with_tasks(
            descriptions, nodes=2, service_nodes=1, share=False
        )
        service_names = {n.name for n in pilot.service_nodes}
        for task in tasks:
            assert not set(task.nodelist) & service_names

    def test_shared_mode_allows_service_nodes(self):
        # Overload the 1 compute node so spill-over must happen.
        descriptions = [
            TaskDescription(
                name=f"app{i}", model=FixedDurationModel(3.0), ranks=30
            )
            for i in range(4)
        ]
        _, client, pilot, tasks = run_pilot_with_tasks(
            descriptions, nodes=1, service_nodes=1, share=True
        )
        service_names = {n.name for n in pilot.service_nodes}
        touched = set()
        for task in tasks:
            touched |= set(task.nodelist)
        assert touched & service_names


class TestScanCharge:
    """``_try_place``'s ``scanned`` count is the simulated decision cost
    (``schedule_base_cost + schedule_per_node_cost × scanned``)."""

    @staticmethod
    def partly_filled_pilot():
        session = Session(cluster_spec=summit_like(8), seed=1)
        client = Client(session)
        env = session.env

        def main(env):
            pilot = yield from client.submit_pilot(
                PilotDescription(nodes=4, agent_nodes=1)
            )
            return pilot

        pilot = env.run(env.process(main(env)))
        n0, n1, n2, n3 = pilot.compute_nodes
        # Free (cores, GPUs): n0 (0, 6), n1 (25, 2), n2 (30, 0), n3 (22, 6).
        n0.allocate(42, 0, owner="filler")
        n1.allocate(17, 4, owner="filler")
        n2.allocate(12, 6, owner="filler")
        n3.allocate(20, 0, owner="filler")
        scheduler = client.agent.scheduler
        return session, client, scheduler

    @staticmethod
    def task(session, cores, gpus):
        description = TaskDescription(
            name="probe",
            model=FixedDurationModel(1.0),
            ranks=1,
            cores_per_rank=cores,
            gpus_per_rank=gpus,
            multi_node=False,
        )
        return Task(session.env, session.new_uid("task"), description)

    def test_scanned_is_position_of_first_fit_in_rotated_order(self):
        session, client, scheduler = self.partly_filled_pilot()
        # 20 cores + 1 GPU fits n1 and n3 only.  Per rotation start:
        # (1-based position of the first fit, the node it lands on).
        expected = [(2, 1), (1, 1), (2, 3), (1, 3), (2, 1)]
        for rr, (position, landed) in enumerate(expected):
            assert scheduler._rr_index == rr
            task = self.task(session, 20, 1)
            eligible = scheduler._eligible_nodes(task)
            allocations, scanned = scheduler._try_place(task, eligible)
            assert scheduler._rr_index == rr + 1
            assert scanned == position
            assert [a.node for a in allocations] == [eligible[landed]]
            for allocation in allocations:
                allocation.release()
        client.close()

    def test_no_fit_scans_every_node_and_still_rotates(self):
        session, client, scheduler = self.partly_filled_pilot()
        # 30 cores + 1 GPU: n2 has the cores but no GPU, so nothing fits.
        for rr in range(3):
            task = self.task(session, 30, 1)
            eligible = scheduler._eligible_nodes(task)
            assert scheduler._try_place(task, eligible) == (None, len(eligible))
            assert scheduler._rr_index == rr + 1
        client.close()
