"""Smoke test for the store-query perf bench (quick mode).

Runs the per-source index microbenchmark once at CI scale and checks
the contract the perf-regression harness depends on: stable JSON
schema, indexed-vs-legacy answer equivalence (the guard that the
per-source index is a pure optimization), and a conservative speedup
floor — full-scale runs measure well over 10x; the floor leaves
headroom for noisy shared runners.
"""

import os
import sys

BENCH_DIR = os.path.abspath(
    os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "perf"
    )
)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import bench_store_query  # noqa: E402


def test_quick_bench_schema_equivalence_and_speedup():
    results = bench_store_query.run_all(quick=True)

    assert results["schema"] == 1
    assert results["quick"] is True
    bench = results["benches"]["store_source_query"]
    assert bench["records"] == bench["sources"] * 400
    assert bench["legacy"]["seconds"] > 0
    assert bench["indexed"]["seconds"] > 0
    # Identical answers from both algorithms, or the speedup is noise.
    assert bench["equivalent"] is True
    assert bench["legacy"]["matched"] == bench["indexed"]["matched"]
    # Full-scale runs measure >10x; CI floor is deliberately loose.
    assert bench["speedup"] >= 2.0
    rows = results["benches"]["store_row_records"]
    assert rows["identical"] is True
    for form in ("rows", "trees"):
        assert rows[form]["append_us"] > 0 and rows[form]["rebuild_us"] > 0


def test_legacy_replica_matches_on_out_of_order_appends():
    """The insort path: late-arriving publishes keep both stores aligned."""
    from repro.soma.storage import NamespaceStore

    indexed = NamespaceStore("ns")
    legacy = bench_store_query.LegacyNamespaceStore("ns")
    payload = bench_store_query._payload()
    appends = [
        (30.0, "a"), (10.0, "b"), (20.0, "a"), (20.0, "b"),
        (5.0, "a"), (30.0, "b"), (25.0, "a"),
    ]
    for at, source in appends:
        indexed.append(at, source, payload)
        legacy.append(at, source, payload)
    for source in (None, "a", "b", "missing"):
        assert indexed.records(source=source) == legacy.records(source=source)
        assert indexed.records(source=source, since=10.0, until=25.0) == (
            legacy.records(source=source, since=10.0, until=25.0)
        )
        assert indexed.latest(source) == legacy.latest(source)
