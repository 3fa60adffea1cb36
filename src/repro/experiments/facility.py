"""The facility scenario: hundreds of pilots, one shared SOMA service.

The paper deploys SOMA per workflow; this module asks what happens
when a leadership-class facility runs it as *shared infrastructure* —
hundreds of concurrent pilots (the RP Summit characterization's
many-task regime) publishing into one sharded deployment:

* the same :class:`~repro.soma.service.SomaServiceModel` RP runs, with
  ``shards`` instances, brought up directly on a handful of service
  nodes (no RP pilot machinery — the service is the facility's, not
  any workflow's);
* one *tenant* per pilot: a bag-of-tasks engine (``concurrency``
  workers draining ``tasks_per_pilot`` task durations drawn from the
  OpenFOAM/DDMD workload scales) plus a monitor process publishing a
  batched sample per monitoring period, one row per namespace
  (``RP/<tenant>/...`` and ``TAU/<tenant>/...``);
* the PR 1 degradation contract, generalized: task workers never touch
  the monitoring path, so a shard outage or an admission rejection can
  cost *samples* (recorded as gaps) but never *task time*.  The
  ``stalled_tasks`` counter exists to catch anyone re-coupling them.

Everything is deterministic per (spec, seed): durations come from
``session.stable_rng("facility:<tenant>")``, and the run produces a
plain-data manifest (:meth:`FacilityResult.payload`) the sweep engine
can cache and diff byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Iterator

from ..conduit.rows import Schema
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..platform import summit_like
from ..rp.session import Session
from ..sim.core import Event
from ..soma.namespaces import PERFORMANCE, WORKFLOW
from ..soma.service import SomaConfig, SomaServiceModel
from ..soma.sharding import DEFAULT_VNODES, shard_key
from ..workloads.ddmd import DDMDParams
from ..workloads.openfoam import OpenFOAMParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..soma.client import SomaClient

__all__ = [
    "FacilitySpec",
    "FacilityResult",
    "facility_chaos_plan",
    "run_facility",
]


@dataclass(frozen=True, slots=True)
class FacilitySpec:
    """Shape of one facility run (plain data, picklable for the sweep)."""

    #: Concurrent pilots (= tenants) sharing the service.
    pilots: int = 200
    #: Shard instances of the SOMA deployment.
    shards: int = 4
    #: Facility nodes hosting the service instances.
    service_nodes: int = 4
    #: Monitored tasks each pilot runs.
    tasks_per_pilot: int = 500
    #: Task slots per pilot (bag-of-tasks width).
    concurrency: int = 8
    #: Monitoring/publication period, seconds.
    period: float = 60.0
    #: Workload families assigned round-robin to pilots.
    workload_mix: tuple[str, ...] = ("openfoam", "ddmd")
    #: Namespaces each pilot's monitor publishes into.
    namespaces: tuple[str, ...] = (WORKFLOW, PERFORMANCE)
    #: Service ranks per namespace server.
    ranks_per_namespace: int = 2
    #: Virtual nodes per instance on the ring.
    ring_vnodes: int = DEFAULT_VNODES
    #: Per-tenant publish budget (tokens/s); None = no admission control.
    admission_rate: float | None = None
    admission_burst: float = 10.0
    #: Client degrade mode under backpressure: "drop" or "summarize".
    degrade: str = "drop"

    def __post_init__(self) -> None:
        # Rejected here, not deep in the run: with no task slot no
        # worker ever runs a task, and a zero period never advances the
        # monitor loop, so either would hang instead of failing; an
        # infinite one moves the clock to infinity; with no pilot, task
        # or service node there is nothing to run.
        for name in ("pilots", "service_nodes", "tasks_per_pilot", "concurrency"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(
                f"period must be a finite number > 0, got {self.period}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.admission_rate is not None and not self.admission_rate > 0:
            raise ValueError(
                f"admission_rate must be > 0 or None, got {self.admission_rate}"
            )
        # An unknown family would fail deep inside the run, and an empty
        # mix on the first pilot's ``i % 0``.
        if not self.workload_mix or not set(self.workload_mix) <= {"openfoam", "ddmd"}:
            raise ValueError(
                "workload_mix must name one or more of 'openfoam' and 'ddmd', "
                f"got {self.workload_mix!r}"
            )
        # Checked here because the pilots set it on clients already built.
        if self.degrade not in ("drop", "summarize"):
            raise ValueError(
                f"degrade must be 'drop' or 'summarize', got {self.degrade!r}"
            )

    def soma_config(self) -> SomaConfig:
        return SomaConfig(
            ranks_per_namespace=self.ranks_per_namespace,
            namespaces=self.namespaces,
            monitoring_frequency=self.period,
            monitors=(),
            shards=self.shards,
            ring_vnodes=self.ring_vnodes,
            admission_rate=self.admission_rate,
            admission_burst=self.admission_burst,
        )

    def tenants(self) -> tuple[str, ...]:
        return tuple(f"t{i:03d}" for i in range(self.pilots))


#: A pilot's batch, keyed by tenant, in each namespace it publishes to.
_RP_BATCH = Schema("RP", ("completed", "batch", "last_finish"))
_TAU_BATCH = Schema("TAU", ("batch_task_seconds", "batch_tasks"))


#: Mean task durations per workload family, seconds.  OpenFOAM: the
#: per-iteration compute grain of the paper's solver runs; DDMD: the
#: stage mix of one pipeline pass averaged over its four task kinds.
def _family_scale(family: str) -> float:
    if family == "openfoam":
        p = OpenFOAMParams()
        return p.total_work / p.iterations
    if family == "ddmd":
        p = DDMDParams()
        return (
            p.sim_gpu_seconds
            + p.train_gpu_seconds
            + p.selection_cpu_seconds
            + p.agent_gpu_seconds
        ) / 4.0 / 4.0
    raise ValueError(f"unknown workload family {family!r}")


class _PilotState:
    """Mutable per-pilot accounting shared by its workers + monitor."""

    __slots__ = (
        "tenant",
        "family",
        "completed",
        "stalled",
        "pending_samples",
        "published_samples",
        "publishes_ok",
        "publishes_failed",
    )

    def __init__(self, tenant: str, family: str) -> None:
        self.tenant = tenant
        self.family = family
        self.completed = 0
        self.stalled = 0
        self.pending_samples: list[tuple[float, float]] = []
        self.published_samples = 0
        self.publishes_ok = 0
        self.publishes_failed = 0


@dataclass(slots=True)
class FacilityResult:
    """Everything a facility run reports (plain data via payload())."""

    spec: FacilitySpec
    seed: int
    makespan: float
    samples_generated: int
    samples_published: int
    stalled_tasks: int
    publishes_ok: int
    publishes_failed: int
    client_drops: int
    client_rejections: int
    gaps: int
    gap_seconds: float
    store_records: dict[str, int]
    queue_stats: dict[str, dict[str, float]]
    admission: dict[str, dict[str, dict[str, int]]]
    faults_applied: int

    def payload(self) -> dict[str, Any]:
        """JSON-able manifest (sweep cell output / CI artifact)."""
        return {
            "pilots": self.spec.pilots,
            "shards": self.spec.shards,
            "tasks_per_pilot": self.spec.tasks_per_pilot,
            "seed": self.seed,
            "makespan": self.makespan,
            "samples_generated": self.samples_generated,
            "samples_published": self.samples_published,
            "stalled_tasks": self.stalled_tasks,
            "publishes_ok": self.publishes_ok,
            "publishes_failed": self.publishes_failed,
            "client_drops": self.client_drops,
            "client_rejections": self.client_rejections,
            "gaps": self.gaps,
            "gap_seconds": self.gap_seconds,
            "store_records": dict(sorted(self.store_records.items())),
            "queue_stats": {
                name: dict(sorted(stats.items()))
                for name, stats in sorted(self.queue_stats.items())
            },
            "admission": self.admission,
            "faults_applied": self.faults_applied,
        }


def _worker(
    env, state: _PilotState, durations: Iterator[float]
) -> Generator[Event, None, None]:
    """One task slot: drain durations; never touches the RPC path."""
    for draw in durations:
        duration = float(draw)  # no numpy scalar reaches the clock
        started = env.now
        yield env.timeout(duration)
        # Float non-associativity makes (t0 + d) - t0 != d in general;
        # the epsilon separates that from an actual stall.
        if (env.now - started) > duration + 1e-6:
            state.stalled += 1
        state.pending_samples.append((env.now, duration))
        state.completed += 1


def _monitor(
    env,
    spec: FacilitySpec,
    state: _PilotState,
    client: "SomaClient",
) -> Generator[Event, None, None]:
    """Publish the pilot's batched samples once per period.

    Separate process from the workers by design: monitoring riding the
    task path is exactly the coupling the degradation contract forbids.
    """
    while state.completed < spec.tasks_per_pilot:
        yield env.timeout(spec.period)
        yield from _flush(env, spec, state, client)
    # Final flush for samples completed inside the last partial period.
    yield from _flush(env, spec, state, client)


def _flush(
    env, spec: FacilitySpec, state: _PilotState, client: "SomaClient"
) -> Generator[Event, None, None]:
    batch = state.pending_samples
    if not batch:
        return
    state.pending_samples = []
    tenant = state.tenant
    total = sum(duration for _, duration in batch)
    rp = (state.completed, len(batch), batch[-1][0])
    payloads = (
        (WORKFLOW, [(_RP_BATCH, tenant, rp)]),
        (PERFORMANCE, [(_TAU_BATCH, tenant, (total, len(batch)))]),
    )
    published_all = True
    for namespace, payload in payloads:
        if namespace not in spec.namespaces:
            continue
        ok = yield from client.publish(namespace, payload)
        if ok:
            state.publishes_ok += 1
        else:
            state.publishes_failed += 1
            published_all = False
    if published_all:
        state.published_samples += len(batch)


def _pilot(
    session: Session,
    spec: FacilitySpec,
    config: SomaConfig,
    state: _PilotState,
) -> Generator[Event, None, None]:
    env = session.env
    rng = session.stable_rng(f"facility:{state.tenant}")
    scale = _family_scale(state.family)
    # Uniform ±50% around the family scale: enough spread to desync
    # the pilots' monitors without modelling full workload pipelines.
    # One array, drained by every worker through one shared iterator.
    durations = iter(scale * (0.5 + rng.random(spec.tasks_per_pilot)))
    client = config.make_client(
        session,
        name=f"mon@{state.tenant}",
        node=None,
        tenant=state.tenant,
    )
    client.degrade = spec.degrade
    workers = [
        env.process(
            _worker(env, state, durations),
            name=f"facility:{state.tenant}:w{i}",
        )
        for i in range(spec.concurrency)
    ]
    monitor = env.process(
        _monitor(env, spec, state, client),
        name=f"facility:{state.tenant}:mon",
    )
    for proc in workers:
        yield proc
    yield monitor


def facility_chaos_plan(spec: FacilitySpec) -> FaultPlan:
    """The canonical facility chaos plan (CLI, sweep, and tests).

    Targets the shard that owns the *first* tenant's first namespace —
    computed through the same ring the deployment will build, so the
    outage provably hits a shard with live traffic — with a 240 s
    outage at t = 300 s, then a 120 s flood of 50 publishes/s from the
    synthetic tenant ``noisy`` against that shard at t = 600 s.
    """
    ring = spec.soma_config().ring
    victim = ring.owner(shard_key(spec.tenants()[0], spec.namespaces[0]))
    return (
        FaultPlan()
        .shard_outage(300.0, victim, duration=240.0)
        .tenant_flood(600.0, victim, tenant="noisy", rate=50.0, duration=120.0)
    )


def run_facility(
    spec: FacilitySpec,
    seed: int = 1,
    fault_plan: "FaultPlan | None" = None,
) -> FacilityResult:
    """Run one facility scenario to completion and report the manifest."""
    session = Session(
        cluster_spec=summit_like(spec.service_nodes, name="facility"),
        seed=seed,
    )
    env = session.env
    config = spec.soma_config()
    model = SomaServiceModel(session, config)
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(session, fault_plan, name="facility-chaos")
        injector.start()

    states = [
        _PilotState(tenant, spec.workload_mix[i % len(spec.workload_mix)])
        for i, tenant in enumerate(spec.tenants())
    ]

    def main() -> Generator[Event, None, None]:
        model.bring_up(list(session.cluster.nodes), session.cluster.network)
        pilots = []
        for state in states:
            proc = env.process(
                _pilot(session, spec, config, state),
                name=f"facility:pilot:{state.tenant}",
            )
            pilots.append(proc)
        for proc in pilots:
            yield proc

    env.run(env.process(main(), name="facility-main"))

    clients = session.soma_clients
    store_records = {
        key: len(store) for key, store in sorted(dict(model.stores).items())
    }
    return FacilityResult(
        spec=spec,
        seed=seed,
        makespan=env.now,
        samples_generated=sum(s.completed for s in states),
        samples_published=sum(s.published_samples for s in states),
        stalled_tasks=sum(s.stalled for s in states),
        publishes_ok=sum(s.publishes_ok for s in states),
        publishes_failed=sum(s.publishes_failed for s in states),
        client_drops=sum(c.dropped for c in clients),
        client_rejections=sum(c.rejected for c in clients),
        gaps=sum(c.gaps for c in clients),
        gap_seconds=sum(c.gap_seconds for c in clients),
        store_records=store_records,
        queue_stats=model.queue_stats(),
        admission=model.admission_counters(),
        faults_applied=len(injector.applied) if injector is not None else 0,
    )
