"""Property battery for the SOMA sharding layer (ISSUE 9 satellite).

Three contracts pinned here, each load-bearing for the facility
deployment:

* **Balance** — across 10³ structured shard keys the max/mean
  keys-per-instance ratio stays under :data:`BALANCE_BOUND` for any
  2–8 instance ring at the default vnode count.
* **Minimal remap** — joining an instance only moves keys *to* the
  joiner; leaving only moves keys *off* the leaver; join∘leave is the
  identity on the ownership map.
* **Placement stability** — ownership is a pure function of the label
  bytes: independent of insertion order, of ``PYTHONHASHSEED``, and of
  the process computing it.

Plus unit coverage for the admission-control primitives
(:class:`TokenBucket`, :class:`AdmissionController`) and the windowed
:class:`ServerStats` accounting the queueing detector reads.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.messaging.protocol import RPCRequest
from repro.messaging.rpc import ServerStats
from repro.soma.sharding import (
    AdmissionController,
    HashRing,
    TokenBucket,
    instance_names,
    registry_name,
    route,
    server_keys,
    shard_key,
    split_key,
)

#: Configurable balance bound: max/mean shard load over 10³ keys.  128
#: vnodes lands ≤1.4 empirically across random tenant populations;
#: 1.5 leaves slack without hiding a real imbalance regression (a
#: vnode-less ring exceeds 2 almost surely).
BALANCE_BOUND = 1.5

tenant_prefixes = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=8,
)
instance_counts = st.integers(min_value=2, max_value=8)


def thousand_keys(prefix: str) -> list[str]:
    """10³ structured shard keys: 100 tenants × 10 namespaces."""
    return [
        shard_key(f"{prefix}{t:03d}", f"ns{i:02d}")
        for t in range(100)
        for i in range(10)
    ]


def ownership(ring: HashRing, keys: list[str]) -> dict[str, str]:
    return {key: ring.owner(key) for key in keys}


# -- ring properties -------------------------------------------------


@given(instance_counts, tenant_prefixes)
@settings(max_examples=60, deadline=None)
def test_balance_bound_across_1e3_keys(count, prefix):
    ring = HashRing(instance_names(count))
    keys = thousand_keys(prefix)
    load = ring.load(keys)
    assert sum(load.values()) == len(keys)
    assert len(load) == count  # every instance present, even if cold
    ratio = max(load.values()) / (len(keys) / count)
    assert ratio <= BALANCE_BOUND, f"max/mean {ratio:.3f} on {count} shards"


@given(instance_counts, tenant_prefixes)
@settings(max_examples=40, deadline=None)
def test_join_moves_keys_only_to_the_joiner(count, prefix):
    keys = thousand_keys(prefix)
    ring = HashRing(instance_names(count))
    before = ownership(ring, keys)
    ring.add("joiner")
    after = ownership(ring, keys)
    moved = {k for k in keys if before[k] != after[k]}
    assert all(after[k] == "joiner" for k in moved)
    # The joiner's share is roughly 1/(count+1); minimal remap means
    # nothing beyond its arcs moved, so the moved set IS its ownership.
    assert moved == {k for k in keys if after[k] == "joiner"}


@given(instance_counts, tenant_prefixes)
@settings(max_examples=40, deadline=None)
def test_leave_moves_keys_only_off_the_leaver(count, prefix):
    keys = thousand_keys(prefix)
    names = instance_names(count)
    ring = HashRing(names)
    before = ownership(ring, keys)
    leaver = names[count // 2]
    ring.remove(leaver)
    after = ownership(ring, keys)
    for key in keys:
        if before[key] != leaver:
            assert after[key] == before[key], "survivor's key moved"
        else:
            assert after[key] != leaver


@given(instance_counts, tenant_prefixes)
@settings(max_examples=25, deadline=None)
def test_join_then_leave_is_identity(count, prefix):
    keys = thousand_keys(prefix)
    ring = HashRing(instance_names(count))
    before = ownership(ring, keys)
    ring.add("transient")
    ring.remove("transient")
    assert ownership(ring, keys) == before


@given(instance_counts, tenant_prefixes)
@settings(max_examples=25, deadline=None)
def test_placement_independent_of_insertion_order(count, prefix):
    keys = thousand_keys(prefix)
    names = instance_names(count)
    forward = HashRing(names)
    backward = HashRing(reversed(names))
    assert ownership(forward, keys) == ownership(backward, keys)


def test_placement_identical_across_processes():
    """Ownership must not depend on ``PYTHONHASHSEED`` / the process.

    Runs the same placement in a child interpreter with a different
    hash seed; a ``hash()``-based ring would disagree almost surely.
    """
    keys = thousand_keys("acme")
    here = ownership(HashRing(instance_names(4)), keys)
    program = (
        "import json, sys\n"
        "from repro.soma.sharding import HashRing, instance_names\n"
        "keys = json.load(sys.stdin)\n"
        "ring = HashRing(instance_names(4))\n"
        "print(json.dumps({k: ring.owner(k) for k in keys}))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), os.path.abspath("src")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", program],
        input=json.dumps(keys),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert json.loads(proc.stdout) == here


def test_ring_edge_cases():
    ring = HashRing()
    with pytest.raises(ValueError):
        ring.owner("anything")
    with pytest.raises(ValueError):
        ring.remove("absent")
    ring.add("solo")
    with pytest.raises(ValueError):
        ring.add("solo")
    assert ring.owner(shard_key("t", "ns")) == "solo"
    with pytest.raises(ValueError):
        HashRing(vnodes=0)
    assert instance_names(3) == ("s00", "s01", "s02")
    assert "solo" in ring and len(ring) == 1


def test_router_names():
    # No ring: the paper's one server per namespace, for every tenant.
    assert route(None, "t0", "workflow") == "workflow"
    assert registry_name(route(None, "t0", "workflow")) == "soma.workflow"
    ring = HashRing(instance_names(2))
    owner = ring.owner(shard_key("t0", "workflow"))
    assert owner in ("s00", "s01")
    assert route(ring, "t0", "workflow") == f"{owner}.workflow"
    assert (
        registry_name(route(ring, "t0", "workflow"))
        == f"soma.{owner}.workflow"
    )
    # Same tenant, different namespace may land elsewhere — but the
    # name is always instance-qualified under sharding.
    assert registry_name(route(ring, "t0", "hardware")).startswith("soma.s")
    # The fault injector reads the keys back out of the registry.
    names = ["soma.workflow", "soma.s01.hardware", "flood.x"]
    assert server_keys(names) == ["s01.hardware", "workflow"]
    assert split_key("s01.hardware") == ("s01", "hardware")
    assert split_key("workflow") == (None, "workflow")


# -- admission control ----------------------------------------------


class _Clock:
    """Stand-in for Environment: AdmissionController only reads .now."""

    def __init__(self):
        self.now = 0.0


def test_token_bucket_burst_then_rate():
    bucket = TokenBucket(rate=2.0, burst=3.0)
    assert [bucket.admit(0.0) for _ in range(4)] == [True] * 3 + [False]
    # 0.25s at 2 tokens/s refills half a token: still refused.
    assert not bucket.admit(0.25)
    # By t=1.0 two tokens accrued (minus the 0.5 spent nothing — the
    # refused admit consumed no tokens): admit twice, refuse the third.
    assert bucket.admit(1.0)
    assert bucket.admit(1.0)
    assert not bucket.admit(1.0)
    # Refill caps at burst depth no matter how long the idle gap.
    bucket2 = TokenBucket(rate=1.0, burst=2.0)
    for _ in range(2):
        assert bucket2.admit(0.0)
    assert [bucket2.admit(1e6) for _ in range(3)] == [True, True, False]


def _request(method: str, tenant: str) -> RPCRequest:
    return RPCRequest(
        method=method,
        payload_bytes=1.0,
        body=None,
        client="test",
        sent_at=0.0,
        uid=0,
        tenant=tenant,
    )


def _publish(tenant: str) -> RPCRequest:
    return _request("publish", tenant)


def test_admission_controller_per_tenant_isolation():
    clock = _Clock()
    gate = AdmissionController(clock, rate=1.0, burst=2.0)
    # Tenant a exhausts its burst; tenant b is untouched.
    assert gate(_publish("a")) and gate(_publish("a"))
    assert not gate(_publish("a"))
    assert gate(_publish("b")) and gate(_publish("b"))
    # Queries are never throttled, even for the throttled tenant.
    assert gate(_request("query", "a"))
    assert gate.counters() == {
        "admitted": {"a": 2, "b": 2},
        "rejected": {"a": 1},
    }
    # The clock advancing re-admits deterministically.
    clock.now = 5.0
    assert gate(_publish("a"))
    with pytest.raises(ValueError):
        AdmissionController(clock, rate=0.0)


# -- windowed ServerStats --------------------------------------------


def test_server_stats_zero_call_safe():
    stats = ServerStats()
    assert stats.mean_queue_time == 0.0
    assert stats.worst_window_queue_time == 0.0
    delta = ServerStats.interval(stats.snapshot(), stats.snapshot())
    assert delta["mean_queue_time"] == 0.0
    assert delta["mean_busy_time"] == 0.0


def test_server_stats_window_rolls_on_fixed_grid():
    stats = ServerStats(window_seconds=60.0)
    # First window anchored at t=5: two calls, mean queue 1.0.
    stats.note_call(5.0, queue_time=0.5, busy_time=0.1, nbytes=10.0)
    stats.note_call(20.0, queue_time=1.5, busy_time=0.1, nbytes=10.0)
    assert stats.windows_closed == 0
    assert stats.worst_window_queue_time == pytest.approx(1.0)
    # t=70 is past 5+60: the first window closes with its mean, and
    # the new window starts on the grid point 65, not at 70.
    stats.note_call(70.0, queue_time=0.2, busy_time=0.1, nbytes=10.0)
    assert stats.windows_closed == 1
    assert stats.peak_window_queue_time == pytest.approx(1.0)
    assert stats.peak_window_calls == 2
    assert stats._window_start == pytest.approx(65.0)
    # A long idle gap skips straight to the right grid window.
    stats.note_call(65.0 + 60.0 * 7 + 3.0, 0.0, 0.1, 10.0)
    assert stats._window_start == pytest.approx(65.0 + 60.0 * 7)
    # Lifetime counters unaffected by windowing.
    assert stats.calls == 4
    assert stats.queue_time == pytest.approx(2.2)


def test_server_stats_peak_survives_quiet_tail():
    """The burst stays visible after hours of idle-ish traffic —
    exactly the dilution the lifetime mean suffers from."""
    stats = ServerStats(window_seconds=60.0)
    for i in range(10):  # saturated minute: mean queue 2s
        stats.note_call(i * 6.0, 2.0, 0.1, 1.0)
    for i in range(200):  # three+ hours of instant service
        stats.note_call(100.0 + i * 60.0, 0.0, 0.1, 1.0)
    assert stats.mean_queue_time < 0.1  # diluted
    assert stats.worst_window_queue_time == pytest.approx(2.0)  # not


def test_server_stats_interval_deltas():
    stats = ServerStats()
    stats.note_call(0.0, 1.0, 0.5, 100.0)
    before = stats.snapshot()
    stats.note_call(1.0, 3.0, 0.5, 50.0)
    stats.note_call(2.0, 1.0, 0.5, 50.0)
    stats.errors += 1
    stats.rejections += 2
    delta = ServerStats.interval(before, stats.snapshot())
    assert delta["calls"] == 2
    assert delta["bytes"] == pytest.approx(100.0)
    assert delta["errors"] == 1
    assert delta["rejections"] == 2
    assert delta["mean_queue_time"] == pytest.approx(2.0)
    assert delta["mean_busy_time"] == pytest.approx(0.5)
