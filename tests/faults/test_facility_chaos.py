"""Chaos battery: the facility service under shard outage + tenant flood.

Extends the PR 1 degradation contract ("drop sample, record gap, never
stall tasks") to the shared deployment:

* a **shard outage** may cost the victim shard's tenants samples —
  recorded as publish failures and, after recovery, closed gaps — but
  task progress never stalls and the surviving shards serve untouched;
* a **tenant flood** against an admission-controlled shard burns the
  flooding tenant's budget only: every other tenant's bucket, on every
  shard, stays clean;
* recovery is *deterministic*: the same (spec, plan, seed) triple
  yields a byte-identical facility manifest, replay after replay.

The acceptance-scale scenario (200 pilots × 500 tasks = 10⁵ monitored
samples under both faults at once) runs last, slow-marked.
"""

import pytest

from repro.experiments.facility import (
    FacilitySpec,
    facility_chaos_plan,
    run_facility,
)
from repro.faults import FaultPlan
from repro.soma.sharding import shard_key

pytestmark = pytest.mark.slow

SMALL = FacilitySpec(
    pilots=16,
    shards=2,
    service_nodes=2,
    tasks_per_pilot=80,
    concurrency=4,
    period=30.0,
)


def test_new_fault_kinds_validate():
    plan = FaultPlan().shard_outage(10.0, "s00", duration=5.0)
    plan.tenant_flood(20.0, "s01", tenant="noisy", rate=10.0, duration=5.0)
    kinds = [event.kind for event in plan.events]
    assert kinds == ["shard_outage", "tenant_flood"]
    with pytest.raises(ValueError):
        FaultPlan().tenant_flood(
            0.0, "s00", tenant="noisy", rate=0.0, duration=5.0
        )
    with pytest.raises(ValueError):
        FaultPlan().tenant_flood(
            0.0, "s00", tenant="noisy", rate=1.0, duration=float("inf")
        )


def victim_of(spec: FacilitySpec) -> str:
    ring = spec.soma_config().ring
    return ring.owner(shard_key(spec.tenants()[0], spec.namespaces[0]))


def test_shard_outage_contained_to_victim():
    spec = SMALL
    victim = victim_of(spec)
    plan = FaultPlan().shard_outage(120.0, victim, duration=240.0)
    result = run_facility(spec, seed=7, fault_plan=plan)

    assert result.faults_applied == 1
    # The contract: samples may die, tasks may not.
    assert result.stalled_tasks == 0
    assert result.samples_generated == spec.pilots * spec.tasks_per_pilot
    assert result.publishes_failed > 0
    assert result.client_drops > 0
    # Recovery happened inside the run: failed tenants resumed
    # publishing, which is what closes a gap and stamps its extent.
    assert result.gaps > 0
    assert result.gap_seconds > 0.0
    # Surviving shard untouched: no errors on any non-victim server,
    # and its stores kept growing.
    for name, stats in result.queue_stats.items():
        if not name.startswith(f"{victim}."):
            assert stats["errors"] == 0, f"fault leaked into {name}"
    survivor_records = sum(
        count
        for key, count in result.store_records.items()
        if not key.startswith(f"{victim}.")
    )
    assert survivor_records > 0


def test_shard_outage_recovery_is_deterministic():
    spec = SMALL
    plan = FaultPlan().shard_outage(120.0, victim_of(spec), duration=180.0)
    first = run_facility(spec, seed=11, fault_plan=plan).payload()
    again = run_facility(spec, seed=11, fault_plan=plan).payload()
    assert first == again


def test_tenant_flood_burns_only_the_flooder():
    spec = FacilitySpec(
        pilots=16,
        shards=2,
        service_nodes=2,
        tasks_per_pilot=80,
        concurrency=4,
        period=30.0,
        admission_rate=0.5,
    )
    victim = victim_of(spec)
    plan = FaultPlan().tenant_flood(
        60.0, victim, tenant="noisy", rate=50.0, duration=120.0
    )
    result = run_facility(spec, seed=7, fault_plan=plan)

    assert result.faults_applied == 1
    assert result.stalled_tasks == 0
    # The flood hammered the victim shard's gate...
    rejected = result.admission[victim]["rejected"]
    assert rejected.get("noisy", 0) > 0
    # ...and nobody else's budget was touched, on any shard: real
    # tenants publish twice per 30 s period, far under 0.5 tokens/s.
    for instance, counters in result.admission.items():
        others = {
            t: n for t, n in counters["rejected"].items() if t != "noisy"
        }
        assert not others, f"flood spilled onto {others} at {instance}"
    # Real tenants' pipelines were unaffected end to end.
    assert result.publishes_failed == 0
    assert result.samples_published == result.samples_generated


def test_acceptance_scale_facility_under_chaos():
    """ISSUE 9 acceptance: ≥200 pilots, ≥10⁵ samples, outage + flood,
    zero task stalls."""
    spec = FacilitySpec(
        pilots=200,
        shards=4,
        service_nodes=4,
        tasks_per_pilot=500,
        concurrency=8,
        period=60.0,
        admission_rate=0.5,
    )
    result = run_facility(spec, seed=3, fault_plan=facility_chaos_plan(spec))

    assert result.faults_applied == 2
    assert result.samples_generated >= 100_000
    assert result.samples_generated == spec.pilots * spec.tasks_per_pilot
    assert result.stalled_tasks == 0
    # The outage cost samples and the gaps prove the clients noticed
    # *and recovered* — a gap only closes on a later successful publish.
    assert result.client_drops > 0
    assert result.gaps > 0
    # The flood tenant was throttled; no real tenant ever was.
    all_rejected: dict[str, int] = {}
    for counters in result.admission.values():
        for tenant, count in counters["rejected"].items():
            all_rejected[tenant] = all_rejected.get(tenant, 0) + count
    assert all_rejected.get("noisy", 0) > 0
    assert set(all_rejected) == {"noisy"}
    # Every store on every shard saw traffic.
    assert all(count > 0 for count in result.store_records.values())
