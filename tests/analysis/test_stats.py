"""Statistics, report rendering, overhead accounting."""

import math

import pytest

from repro.analysis import (
    compare_runtimes,
    fmt,
    fmt_percent,
    percent_change,
    render_boxes,
    render_series,
    render_table,
    sparkline,
    summarize,
)


class TestSummarize:
    def test_basic(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.count == 5
        assert s.mean == 3.0
        assert s.median == 3.0
        assert s.minimum == 1.0
        assert s.maximum == 5.0

    def test_empty_has_no_order_statistics(self):
        # Regression: an all-zero Summary was indistinguishable from a
        # genuine all-zero sample; the empty sample's statistics are NaN.
        s = summarize([])
        assert s.count == 0
        for value in (s.mean, s.std, s.minimum, s.p25, s.median, s.p75,
                      s.maximum):
            assert math.isnan(value)

    def test_empty_differs_from_all_zero_sample(self):
        zeros = summarize([0.0, 0.0])
        empty = summarize([])
        assert zeros.mean == 0.0
        assert not math.isnan(zeros.median)
        assert math.isnan(empty.median)

    def test_str_contains_fields(self):
        text = str(summarize([1.0, 2.0]))
        assert "mean=1.50" in text

    def test_str_of_empty_is_na(self):
        text = str(summarize([]))
        assert "n=0" in text
        assert "n/a" in text
        assert "nan" not in text


class TestHelpers:
    def test_percent_change(self):
        assert percent_change(100.0, 110.0) == pytest.approx(10.0)
        assert percent_change(100.0, 90.0) == pytest.approx(-10.0)

    def test_percent_change_zero_baseline_is_nan(self):
        # Regression: used to return 0.0, silently reporting zero
        # overhead whenever the baseline was zero.
        assert math.isnan(percent_change(0.0, 50.0))
        assert math.isnan(percent_change(0.0, 0.0))

    def test_fmt_renders_nan_as_na(self):
        assert fmt(math.nan) == "n/a"
        assert fmt(3.14159, ".2f") == "3.14"
        assert fmt_percent(math.nan) == "n/a"
        assert fmt_percent(4.6) == "+4.60%"


class TestCompareRuntimes:
    def test_overheads_and_speedups(self):
        baseline = [100.0, 100.0]
        results = compare_runtimes(
            baseline,
            {"slow": [105.0, 105.0], "fast": [95.0, 95.0]},
        )
        by_name = {r.config: r for r in results}
        assert by_name["slow"].overhead_percent == pytest.approx(5.0)
        assert not by_name["slow"].is_speedup
        assert by_name["fast"].overhead_percent == pytest.approx(-5.0)
        assert by_name["fast"].is_speedup


class TestRendering:
    def test_render_table_aligned(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["longer", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_sparkline_monotone(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert line[0] <= line[-1]

    def test_sparkline_flat(self):
        assert len(set(sparkline([5, 5, 5]))) == 1

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_render_series(self):
        text = render_series("runtime", [0, 1, 2], [10.0, 20.0, 15.0], "s")
        assert "runtime" in text
        assert "10.00" in text and "20.00" in text

    def test_render_series_empty(self):
        assert "(empty)" in render_series("x", [], [])

    def test_render_boxes(self):
        text = render_boxes({"cfg": [1.0, 2.0, 3.0]}, title="Fig")
        assert "cfg" in text
        assert "median" in text

    def test_render_boxes_empty_group_shows_na(self):
        text = render_boxes({"empty": []})
        assert "n/a" in text
        assert "nan" not in text
