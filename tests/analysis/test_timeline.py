"""Fig 8 timeline reconstruction."""

import pytest

from repro.analysis import (
    BOOTSTRAP,
    RUNNING,
    SCHEDULING,
    build_timeline,
)
from repro.platform import summit_like
from repro.rp import (
    Client,
    FixedDurationModel,
    PilotDescription,
    Session,
    TaskDescription,
)


@pytest.fixture(scope="module")
def run():
    session = Session(cluster_spec=summit_like(3), seed=4)
    client = Client(session)
    env = session.env

    def main(env):
        pilot = yield from client.submit_pilot(
            PilotDescription(nodes=2, agent_nodes=1)
        )
        tasks = client.submit_tasks(
            [
                TaskDescription(
                    name=f"t{i}", model=FixedDurationModel(20.0), ranks=30
                )
                for i in range(4)
            ]
        )
        yield from client.wait_tasks(tasks)
        return pilot, tasks

    pilot, tasks = env.run(env.process(main(env)))
    client.close()
    timeline = build_timeline(session, client.task_manager.tasks)
    return session, pilot, tasks, timeline


def test_all_three_kinds_present(run):
    _, _, _, timeline = run
    assert timeline.kinds() == {BOOTSTRAP, SCHEDULING, RUNNING}


def test_bootstrap_band_covers_all_cores(run):
    session, pilot, _, timeline = run
    boot = [iv for iv in timeline.intervals if iv.kind == BOOTSTRAP]
    nodes = {iv.node for iv in boot}
    assert nodes == {n.name for n in session.cluster.nodes}
    cores = {iv.core for iv in boot if iv.node == pilot.agent_nodes[0].name}
    assert len(cores) == 42


def test_running_core_seconds_match_workload(run):
    _, _, tasks, timeline = run
    # 4 tasks x 30 cores x ~20s each = ~2400 core-seconds running.
    running = timeline.busy_core_seconds(RUNNING)
    assert running == pytest.approx(4 * 30 * 20.0, rel=0.2)


def test_scheduling_precedes_running_per_core(run):
    _, _, _, timeline = run
    per_task = {}
    for iv in timeline.intervals:
        if iv.task:
            per_task.setdefault((iv.task, iv.node, iv.core), {})[
                iv.kind
            ] = iv
    for key, kinds in per_task.items():
        if SCHEDULING in kinds and RUNNING in kinds:
            assert kinds[SCHEDULING].stop <= kinds[RUNNING].start + 1e-9

