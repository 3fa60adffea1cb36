"""Session: uids, jitter, stable RNG, wiring."""

import gc
import weakref

from repro.experiments import run_workflow
from repro.platform import summit_like
from repro.rp import RPConfig, Session
from repro.soma import WORKFLOW, SomaConfig
from repro.workloads import uniform_bag


def test_uid_sequences_are_per_prefix():
    session = Session(cluster_spec=summit_like(2))
    assert session.new_uid("task") == "task.000000"
    assert session.new_uid("task") == "task.000001"
    assert session.new_uid("pilot") == "pilot.0000"
    assert session.new_uid("task") == "task.000002"


def test_jitter_bounds():
    session = Session(cluster_spec=summit_like(2), seed=0)
    nominal = 10.0
    j = session.config.overhead_jitter
    for _ in range(200):
        value = session.jitter(nominal)
        assert nominal * (1 - j) <= value <= nominal * (1 + j)


def test_jitter_disabled():
    session = Session(
        cluster_spec=summit_like(2),
        config=RPConfig(overhead_jitter=0.0),
    )
    assert session.jitter(5.0) == 5.0


def test_stable_rng_reproducible_across_sessions():
    a = Session(cluster_spec=summit_like(2), seed=7)
    b = Session(cluster_spec=summit_like(2), seed=7)
    assert a.stable_rng("x").normal() == b.stable_rng("x").normal()


def test_stable_rng_seed_sensitivity():
    a = Session(cluster_spec=summit_like(2), seed=7)
    b = Session(cluster_spec=summit_like(2), seed=8)
    assert a.stable_rng("x").normal() != b.stable_rng("x").normal()


def test_profile_store_configured_from_config():
    config = RPConfig(
        profile_read_per_record=1e-3, profile_read_max_records=123
    )
    session = Session(cluster_spec=summit_like(2), config=config)
    assert session.profiles.read_time_per_record == 1e-3
    assert session.profiles.read_max_records == 123


def test_session_owns_distinct_components():
    session = Session(cluster_spec=summit_like(2))
    assert session.cluster.env is session.env
    assert session.tracer.env is session.env
    assert session.rpc_registry.env is session.env


def test_each_run_keeps_its_transitions_in_its_own_log():
    """Two same-seed runs in one process record the same transitions,
    each in a log of its own, and a dropped run's log is freed."""

    def workload(client, deployment):
        tasks = client.submit_tasks(uniform_bag(8, duration=5.0))
        yield from client.wait_tasks(tasks)

    def run():
        return run_workflow(
            workload,
            nodes=2,
            service_nodes=1,
            soma_config=SomaConfig(namespaces=(WORKFLOW,), monitors=("rp",)),
            seed=5,
        )

    first, second = run(), run()
    assert first.session.transitions is not second.session.transitions
    assert list(first.tasks) == list(second.tasks)
    assert all(
        list(task.events) == list(second.tasks[uid].events)
        for uid, task in first.tasks.items()
    )
    log = weakref.ref(first.session.transitions)
    del first
    gc.collect()
    assert log() is None
