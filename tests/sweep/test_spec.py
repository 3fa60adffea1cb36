"""Unit battery for the sweep building blocks.

Covers the pieces the parity/chaos invariants rest on: stable content
digests, atomic writes, cache corruption handling, and deterministic
LPT planning.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.sweep import (
    CellSpec,
    ResultCache,
    SweepSpec,
    atomic_write_json,
    atomic_write_text,
    canonical_json,
    estimate_cost,
    plan_shards,
    result_digest,
    schedule_order,
)


# -- digests -----------------------------------------------------------


def test_cell_digest_is_stable_and_param_order_independent():
    a = CellSpec("k", "openfoam", 3, {"x": 1, "y": [1, 2]})
    b = CellSpec("other-key", "openfoam", 3, {"y": [1, 2], "x": 1})
    # Key is identity, not content: same (family, params, seed) -> same
    # digest regardless of key or dict insertion order.
    assert a.digest("code") == b.digest("code")
    # Any ingredient change moves the digest.
    assert a.digest("code") != a.digest("other-code")
    assert a.digest("code") != CellSpec("k", "openfoam", 4, a.params).digest("code")
    assert a.digest("code") != CellSpec("k", "ddmd", 3, a.params).digest("code")


def test_cell_rejects_unserializable_params():
    with pytest.raises(TypeError):
        CellSpec("k", "openfoam", 1, {"bad": object()})
    with pytest.raises(ValueError):
        CellSpec("", "openfoam", 1)


def test_result_digest_tracks_canonical_json():
    payload = {"b": 2.5, "a": [1, 2]}
    assert result_digest(payload) == result_digest({"a": [1, 2], "b": 2.5})
    assert result_digest(payload) != result_digest({"a": [2, 1], "b": 2.5})
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_sweep_spec_unique_keys_and_subset():
    cells = [CellSpec(f"c{i}", "openfoam", i) for i in range(3)]
    spec = SweepSpec(cells)
    assert len(spec) == 3
    assert spec["c1"].seed == 1
    assert [c.key for c in spec.subset({"c2", "c0"})] == ["c0", "c2"]
    with pytest.raises(KeyError):
        spec.subset({"nope"})
    with pytest.raises(ValueError):
        SweepSpec(cells + [CellSpec("c0", "openfoam", 9)])


# -- atomic writes + cache ---------------------------------------------


def test_atomic_write_replaces_whole_file(tmp_path):
    target = tmp_path / "deep" / "out.txt"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    # No temp droppings left behind.
    assert os.listdir(target.parent) == ["out.txt"]
    atomic_write_json(tmp_path / "obj.json", {"a": 1})
    assert json.loads((tmp_path / "obj.json").read_text()) == {"a": 1}


def test_cache_roundtrip_and_corruption_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    digest = "ab" + "0" * 62
    assert cache.get(digest) is None
    cache.put(digest, {"payload": {"x": 1}})
    record = cache.get(digest)
    assert record["payload"] == {"x": 1}
    assert digest in cache
    # Torn/corrupt record -> miss, not error.
    cache.path(digest).write_text('{"payload": ')
    assert cache.get(digest) is None
    # Record stored under the wrong digest -> miss (content check).
    other = "cd" + "0" * 62
    cache.path(other).parent.mkdir(parents=True, exist_ok=True)
    cache.path(other).write_text(json.dumps({"digest": digest}))
    assert cache.get(other) is None


# -- planner -----------------------------------------------------------


def _cells(costs: dict[str, float]) -> list[CellSpec]:
    # Drive estimate_cost through the openfoam instance heuristic so
    # each synthetic cell lands at a chosen cost (0.12 * instances).
    return [
        CellSpec(
            key,
            "openfoam",
            1,
            {"overrides": {"instances_per_config": cost / 0.12}},
        )
        for key, cost in costs.items()
    ]


def test_schedule_order_is_lpt_with_stable_ties():
    cells = _cells({"slow": 10.0, "fast": 1.0, "mid-b": 5.0, "mid-a": 5.0})
    order = [c.key for c in schedule_order(cells)]
    assert order == ["slow", "mid-a", "mid-b", "fast"]
    # Deterministic under input permutation.
    assert [c.key for c in schedule_order(list(reversed(cells)))] == order


def test_schedule_order_prefers_observed_walls():
    cells = _cells({"a": 1.0, "b": 5.0})
    digests = {c.key: c.digest("code") for c in cells}
    observed = {digests["a"]: 50.0}
    order = [c.key for c in schedule_order(cells, observed, digests)]
    assert order == ["a", "b"]


def test_plan_shards_balances_and_predicts():
    cells = _cells({"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0})
    plan = plan_shards(cells, 2)
    assert len(plan.shards) == 2
    assert sorted(c.key for shard in plan.shards for c in shard) == [
        "a", "b", "c", "d",
    ]
    # Greedy LPT on 4/3/2/1 over 2 workers: {a, d} vs {b, c}.
    assert plan.predicted_makespan == pytest.approx(5.0, rel=0.01)
    assert plan.serial_seconds == pytest.approx(10.0, rel=0.01)
    assert plan_shards(cells, 1).predicted_makespan == pytest.approx(
        plan.serial_seconds
    )
    with pytest.raises(ValueError):
        plan_shards(cells, 0)


def test_estimate_cost_covers_every_family():
    assert estimate_cost(CellSpec("t", "openfoam", 1, {})) > 0
    assert estimate_cost(
        CellSpec("s", "ddmd", 1, {"preset": "scaling_b", "pipelines": 128})
    ) > estimate_cost(
        CellSpec("s64", "ddmd", 1, {"preset": "scaling_b", "pipelines": 64})
    )
    assert estimate_cost(CellSpec("x", "ablation", 1, {})) > 0
    assert estimate_cost(CellSpec("u", "unknown-family", 1, {})) > 0
