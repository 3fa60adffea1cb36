"""Tests for the monitoring-overhead accounting behind Fig 11."""

from __future__ import annotations

import math

import pytest

from repro.analysis.overhead import OverheadResult, compare_runtimes


def test_compare_runtimes_percentages():
    baseline = [100.0, 100.0, 100.0]
    results = compare_runtimes(
        baseline,
        {"exclusive": [104.0, 104.0], "shared": [95.0, 95.0]},
    )
    by_config = {r.config: r for r in results}
    assert set(by_config) == {"exclusive", "shared"}

    exclusive = by_config["exclusive"]
    assert exclusive.baseline_mean == pytest.approx(100.0)
    assert exclusive.config_mean == pytest.approx(104.0)
    assert exclusive.overhead_percent == pytest.approx(4.0)
    assert not exclusive.is_speedup

    shared = by_config["shared"]
    assert shared.overhead_percent == pytest.approx(-5.0)
    assert shared.is_speedup


def test_compare_runtimes_preserves_input_order():
    results = compare_runtimes(
        [1.0], {"c": [1.0], "a": [1.0], "b": [1.0]}
    )
    assert [r.config for r in results] == ["c", "a", "b"]


def test_compare_runtimes_zero_baseline_is_nan_not_crash():
    (result,) = compare_runtimes([0.0, 0.0], {"m": [3.0]})
    assert math.isnan(result.overhead_percent)
    # NaN overhead is neither a speedup nor a slowdown.
    assert not result.is_speedup


def test_compare_runtimes_empty_sample_is_nan():
    (result,) = compare_runtimes([10.0], {"m": []})
    assert math.isnan(result.config_mean)
    assert math.isnan(result.overhead_percent)


def test_overhead_result_is_frozen():
    result = OverheadResult("c", 1.0, 2.0, 100.0)
    with pytest.raises(AttributeError):
        result.config = "other"
