"""Property-based tests on RP scheduling invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import summit_like
from repro.rp import (
    Client,
    FixedDurationModel,
    PilotDescription,
    Session,
    TaskDescription,
    TaskState,
)

task_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=50),  # ranks
        st.integers(min_value=0, max_value=2),  # gpus per rank
        st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


def run_workload(specs, seed):
    session = Session(cluster_spec=summit_like(3), seed=seed)
    client = Client(session)
    env = session.env

    def main(env):
        pilot = yield from client.submit_pilot(
            PilotDescription(nodes=2, agent_nodes=1)
        )
        descriptions = []
        for i, (ranks, gpr, duration) in enumerate(specs):
            descriptions.append(
                TaskDescription(
                    name=f"t{i}",
                    model=FixedDurationModel(duration),
                    ranks=ranks,
                    gpus_per_rank=gpr,
                    multi_node=(gpr == 0),
                )
            )
        tasks = client.submit_tasks(descriptions)
        yield from client.wait_tasks(tasks)
        return pilot, tasks

    pilot, tasks = env.run(env.process(main(env)))
    client.close()
    return session, client, pilot, tasks


@given(task_specs, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_every_task_reaches_a_final_state(specs, seed):
    _, _, _, tasks = run_workload(specs, seed)
    for task in tasks:
        assert task.is_final


@given(task_specs, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_no_node_ever_oversubscribed(specs, seed):
    session, client, pilot, tasks = run_workload(specs, seed)
    # Replay alloc/free trace per node and check instantaneous sums.
    per_node_events = {}
    for rec in session.tracer.select(category="rp.alloc"):
        task = client.task_manager.tasks[rec.name]
        start = task.time_of(TaskState.AGENT_EXECUTING_PENDING)
        stop = task.time_of("launch_stop") or task.finished_at
        node = rec.get("node")
        per_node_events.setdefault(node, []).append(
            (start, len(rec.get("cores")), len(rec.get("gpus")))
        )
        per_node_events.setdefault(node, []).append(
            (stop, -len(rec.get("cores")), -len(rec.get("gpus")))
        )
    for node, events in per_node_events.items():
        events.sort()
        cores = gpus = 0
        for _, dc, dg in events:
            cores += dc
            gpus += dg
            assert cores <= 42
            assert gpus <= 6


@given(task_specs, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_task_states_move_strictly_forward(specs, seed):
    from repro.rp.states import TASK_FINAL_STATES, TASK_STATE_ORDER

    order = {s: i for i, s in enumerate(TASK_STATE_ORDER)}
    _, _, _, tasks = run_workload(specs, seed)
    for task in tasks:
        states = [e.state for e in task.events if e.event == "state"]
        indices = [order[s] for s in states if s in order]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        # Exactly one final state, at the end.
        finals = [s for s in states if s in TASK_FINAL_STATES]
        assert len(finals) == 1
        assert states[-1] == finals[0]
