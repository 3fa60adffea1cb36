"""The monitoring-overhead mechanisms, observed in isolation.

These tests pin down the causal claims DESIGN.md makes for Fig 11:
frequent monitoring stalls RP's state machinery through the profile
I/O lock, and monitoring traffic/compute is visible but small.
"""


from repro.experiments import run_workflow
from repro.rp import FixedDurationModel, RPConfig, TaskDescription
from repro.soma import SomaConfig, WORKFLOW, HARDWARE


def run_bag(frequency, n_tasks=40, read_cost=2e-3, seed=3):
    """A serial-ish bag with aggressive profile-read cost, so the lock
    contention mechanism is visible at test scale."""

    def workload(client, deployment):
        tasks = client.submit_tasks(
            [
                TaskDescription(
                    name=f"t{i}",
                    model=FixedDurationModel(4.0),
                    ranks=40,
                )
                for i in range(n_tasks)
            ]
        )
        yield from client.wait_tasks(tasks)
        return tasks

    soma = (
        None
        if frequency is None
        else SomaConfig(
            namespaces=(WORKFLOW, HARDWARE),
            monitors=("proc", "rp"),
            monitoring_frequency=frequency,
        )
    )
    return run_workflow(
        workload,
        nodes=1,
        agent_nodes=1,
        soma_config=soma,
        rp_config=RPConfig(
            profile_read_per_record=read_cost, overhead_jitter=0.0
        ),
        seed=seed,
    )


def test_frequent_monitoring_extends_makespan():
    baseline = run_bag(frequency=None).makespan
    relaxed = run_bag(frequency=60.0).makespan
    frequent = run_bag(frequency=2.0).makespan
    # Monitoring costs something, and more frequent costs more.
    assert relaxed >= baseline * 0.999
    assert frequent > relaxed


def test_monitoring_traffic_crosses_the_fabric():
    result = run_bag(frequency=10.0)
    stats = result.session.cluster.network.stats
    publish_tags = [t for t in stats.by_tag if t.startswith("rpc:publish")]
    assert publish_tags
    count, total_bytes = stats.by_tag[publish_tags[0]]
    assert count > 5
    assert total_bytes > 0


def test_service_rank_cpu_visible_on_host_node():
    result = run_bag(frequency=5.0)
    # The SOMA service lives on the agent node here; its RPC service
    # time is charged as CPU there.
    agent_node = result.client.pilot.agent_nodes[0]
    assert agent_node.busy_cores.integral > 0


def test_profile_reads_counted():
    result = run_bag(frequency=5.0)
    assert result.session.profiles.reads > 3
    assert result.session.profiles.writes > 0


def test_monitor_lock_stall_measured_directly():
    """The updater's profile writes queue behind monitor reads."""
    from repro.rp import ProfileStore, TransitionLog
    from repro.sim import Environment, Tracer

    env = Environment()
    log = TransitionLog(Tracer(env))
    store = ProfileStore(
        env, log, write_time=0.0, read_time_base=1.0, read_time_per_record=0.0
    )
    store.append(log.append(0.0, "task.000000", "state", "NEW", ""))
    write_done = {}

    def reader(env):
        yield from store.read_since(0)

    def writer(env):
        yield env.timeout(0.2)
        yield from store.write_locked(
            log.append(0.2, "task.000001", "state", "NEW", "")
        )
        write_done["t"] = env.now

    env.process(reader(env))
    env.process(writer(env))
    env.run()
    assert write_done["t"] >= 1.0  # stalled behind the 1 s read hold
