"""The trace shape of each task-transition path.

Every task transition leaves one ``rp.state`` or ``rp.event`` trace
record.  Its ``data`` keys depend on the path that applied it: the
updater's states and sub-state events carry their node, client-side
states carry ``node == "client"``, and a transition applied outside
the updater (a cancel, an interrupted or crashed execution) carries no
node key at all.  The Chrome-trace export uses ``data`` as each
instant's ``args``, so these key tuples are part of the trace.
"""

from repro.experiments import run_workflow
from repro.platform import summit_like
from repro.rp import (
    Client,
    FixedDurationModel,
    PilotDescription,
    Session,
    TaskDescription,
    TaskModel,
    TaskState,
)
from repro.soma import WORKFLOW, SomaConfig
from repro.workloads import uniform_bag

CLIENT_STATES = [
    TaskState.TMGR_SCHEDULING,
    TaskState.TMGR_STAGING_INPUT,
    TaskState.AGENT_SCHEDULING_PENDING,
]


class Crashes(TaskModel):
    """A model bug: ``execute`` raises instead of returning a result."""

    def execute(self, ctx):
        yield ctx.env.timeout(1.0)
        raise RuntimeError("model bug")


def transitions(session, uid):
    """The task ``uid``'s transition records, or every task's for None."""
    return [
        rec
        for rec in session.tracer.records
        if rec.category in ("rp.state", "rp.event") and uid in (None, rec.name)
    ]


def run_every_path():
    """One compute node: a blocker holds every core while three tasks
    wait; one waiting task is cancelled in the queue, the running
    blocker is cancelled through the task manager, and the other two
    then run, one of them to a model crash."""
    session = Session(cluster_spec=summit_like(2), seed=1)
    client = Client(session)
    env = session.env
    cores = session.cluster.nodes[0].total_cores

    def main():
        yield from client.submit_pilot(PilotDescription(nodes=1, agent_nodes=1))
        [blocker] = client.submit_tasks(
            [
                TaskDescription(
                    name="blocker",
                    model=FixedDurationModel(100.0),
                    cores_per_rank=cores,
                )
            ]
        )
        yield env.timeout(10.0)
        assert blocker.state == TaskState.AGENT_EXECUTING
        queued, crash, ok = client.submit_tasks(
            [
                TaskDescription(name="queued", model=FixedDurationModel(1.0)),
                TaskDescription(name="crash", model=Crashes()),
                TaskDescription(name="ok", model=FixedDurationModel(1.0)),
            ]
        )
        yield env.timeout(10.0)
        assert queued.state == TaskState.AGENT_SCHEDULING
        client.agent.cancel(queued)
        client.task_manager.cancel_tasks([blocker])
        yield from client.wait_tasks([blocker, queued, crash, ok])
        client.close()
        return blocker, queued, crash, ok

    tasks = env.run(env.process(main()))
    env.run()
    return session, tasks


def test_each_transition_path_keeps_its_trace_shape():
    session, (blocker, queued, crash, ok) = run_every_path()
    assert ok.state == TaskState.DONE

    records = transitions(session, ok.uid)
    states = [rec for rec in records if rec.category == "rp.state"]
    events = [rec for rec in records if rec.category == "rp.event"]
    # Client-side states: TaskManager's feed.
    assert [rec.data for rec in states[:3]] == [
        {"state": state, "node": "client"} for state in CLIENT_STATES
    ]
    # Agent-side states and sub-state events: the updater.
    assert [rec.data["state"] for rec in states[3:]] == [
        TaskState.AGENT_SCHEDULING,
        TaskState.AGENT_EXECUTING_PENDING,
        TaskState.AGENT_EXECUTING,
        TaskState.AGENT_STAGING_OUTPUT,
        TaskState.DONE,
    ]
    assert all(tuple(rec.data) == ("state", "node") for rec in states[3:])
    assert len(events) == 6
    assert all(tuple(rec.data) == ("event", "node") for rec in events)

    # The paths outside the updater record no node.
    for task, final in (
        (queued, TaskState.CANCELED),  # Agent.cancel of a queued task
        (blocker, TaskState.CANCELED),  # the executor's interrupt path
        (crash, TaskState.FAILED),  # the executor's model-bug path
    ):
        assert task.state == final
        last = transitions(session, task.uid)[-1]
        assert (last.category, last.data) == ("rp.state", {"state": final})
    assert isinstance(crash.exception, RuntimeError)


def test_each_transition_is_traced_as_its_history_record():
    """A task's profile row is its transition's trace entry too."""

    def workload(client, deployment):
        tasks = client.submit_tasks(uniform_bag(16, duration=5.0))
        yield from client.wait_tasks(tasks)

    result = run_workflow(
        workload,
        nodes=2,
        service_nodes=1,
        soma_config=SomaConfig(namespaces=(WORKFLOW,), monitors=("rp",)),
    )
    traced = transitions(result.session, uid=None)
    # Every transition but each task's untraced NEW record, once each.
    assert len(traced) == sum(len(t.events) - 1 for t in result.tasks.values())
    assert len(traced) > 16 * 10
    # Each transition trace entry is a row of its task's history, and
    # reads back as that history's record.
    log = result.session.transitions
    rows = list(log.traced())
    assert len(rows) == len(traced)
    for row, rec in zip(rows, traced):
        task = result.tasks[rec.name]
        assert row in task.rows
        assert rec == task.events[task.rows.index(row)]
