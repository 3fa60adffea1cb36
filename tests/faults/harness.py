"""Shared helpers for the chaos test battery.

Every scenario boots a small pilot, arms a :class:`FaultInjector`, runs
a workload through the fault window, and asserts two things: the
workflow degraded the way the fault model promises, and the whole run
is deterministic — the same (seed, plan) pair yields byte-identical
trace and SOMA metric streams.

:func:`run_digest` is the one fingerprint every differential test
compares (seed sweeps, telemetry on vs off, sharded vs single SOMA):
two runs are the same run when their digests match.
"""

from __future__ import annotations

import hashlib
import json

from repro.faults import FaultInjector, FaultPlan
from repro.platform import summit_like
from repro.rp import Client, PilotDescription, Session
from repro.soma import deploy_soma


def boot(nodes=2, seed=1, soma=None, rack_size=None):
    """Boot a session + pilot (+ SOMA stack), one spare node for spill."""
    session = Session(cluster_spec=summit_like(nodes + 1), seed=seed)
    if rack_size is not None:
        session.cluster.network.rack_size = rack_size
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


def arm(session, plan: FaultPlan, name: str = "chaos") -> FaultInjector:
    """Attach and start a fault injector on a booted session."""
    injector = FaultInjector(session, plan, name=name)
    injector.start()
    return injector


def trace_signature(session, skip_categories=()) -> str:
    """Canonical byte string of the trace stream (minus skipped categories)."""
    return "\n".join(
        f"{rec.time!r}|{rec.category}|{rec.name}|{sorted(rec.data.items())!r}"
        for rec in session.tracer.records
        if rec.category not in skip_categories
    )


def metric_signature(deployment) -> str:
    """Canonical byte string of every SOMA namespace's record stream,
    payloads included."""
    return "\n".join(
        f"{namespace}|{rec.time!r}|{rec.source}|{rec.nbytes!r}"
        f"|{rec.data.to_json()}"
        for namespace in deployment.config.namespaces
        for rec in deployment.store(namespace).records()
    )


def run_digest(result, skip_categories=()) -> str:
    """sha256 of everything one workflow run simulated.

    Covers every trace record outside ``skip_categories``, every SOMA
    store record with its payload, the kernel counters, the makespan
    and the finish time.
    """
    digest = hashlib.sha256()
    digest.update(trace_signature(result.session, skip_categories).encode())
    digest.update(metric_signature(result.deployment).encode())
    counters = result.session.env.kernel_counters()
    digest.update(json.dumps(counters, sort_keys=True).encode())
    digest.update(f"{result.makespan!r}|{result.finished_at!r}".encode())
    return digest.hexdigest()


def client_by_name(deployment, name: str):
    """The SOMA client called ``name``."""
    for client in deployment.session.soma_clients:
        if client.name == name:
            return client
    raise LookupError(name)
