"""NamespaceStore per-source query microbenchmark -> BENCH_perf.json.

The bottleneck detectors (and the between-phase adaptive analyses)
query the SOMA stores *per monitor source*: utilization series for one
node's ``hwmon@…``, TAU breakdowns for one ``tau@…`` task, workflow
summaries for one ``rpmon``.  The store keeps a per-source index
maintained on append, so those queries bisect a source-local list
instead of filtering the whole namespace.

This bench measures that claim against a faithful in-tree replica of
the legacy algorithm (global time bisect + linear ``record.source``
filter) on identical stores, and asserts the two return identical
records — the speedup is only meaningful if the answers agree.

A second case appends the same hardware-monitor samples once as rows
(the hardware monitor's ``PROC_SAMPLE`` schema) and once as trees built
path by path, asserts that every record's ``nbytes`` and
``data.to_json()`` agree across the two forms, and reports the
per-record append (size + serialize) and rebuild (``record.data``)
times of each, in microseconds.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_store_query.py
    PYTHONPATH=src python benchmarks/perf/bench_store_query.py --quick --out BENCH_perf.json

When ``--out`` already holds a results JSON (e.g. written by
``benchmarks/e2e/bench_e2e.py``), this bench merges into its
``benches`` map instead of clobbering it.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import sys
import time

from repro.conduit import Node
from repro.monitors.hardware_monitor import PROC_SAMPLE
from repro.soma.storage import NamespaceStore
from repro.sweep.cache import atomic_write_text


class LegacyNamespaceStore(NamespaceStore):
    """Replica of the pre-index store: time bisect, linear source scan.

    Kept only as the baseline side of this microbenchmark, so the
    measured speedup is against the real legacy algorithm rather than
    a guess.
    """

    def records(self, source=None, since=None, until=None):
        times = self._times
        lo = 0 if since is None else bisect.bisect_left(times, since)
        hi = len(times) if until is None else bisect.bisect_right(times, until)
        window = self._records[lo:hi]
        if source is None:
            return window
        return [record for record in window if record.source == source]

    def latest(self, source=None):
        if source is None:
            return self._records[-1] if self._records else None
        for record in reversed(self._records):
            if record.source == source:
                return record
        return None


def best_of(fn, repeats: int = 3) -> tuple[float, object]:
    """Best wall time of ``fn`` over ``repeats`` runs, and its result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _payload() -> Node:
    node = Node()
    node["cpu/utilization"] = 0.41
    node["memory/bandwidth_utilization"] = 0.17
    return node


def _source(index: int) -> str:
    return f"hwmon@cn{index:04d}"


def _populate(store: NamespaceStore, sources: int, per_source: int) -> None:
    """Round-robin publishes: ``sources`` monitors on a shared period."""
    payload = _payload()
    period = 30.0
    for tick in range(per_source):
        for index in range(sources):
            # Monitors fire staggered within the period, as deployed.
            at = tick * period + index * (period / sources)
            store.append(at, _source(index), payload)


def _window_queries(store: NamespaceStore, sources: int, queries: int) -> int:
    """The detector access pattern: one source, a trailing window."""
    horizon = store.records()[-1].time
    matched = 0
    for q in range(queries):
        source = _source(q % sources)
        since = (q * 379.0) % (horizon / 2)
        rows = store.records(source=source, since=since, until=since + horizon / 2)
        last = store.latest(source)
        matched += len(rows) + (last is not None)
    return matched


def _equivalent(indexed: NamespaceStore, legacy: NamespaceStore, sources: int) -> bool:
    horizon = indexed.records()[-1].time
    probes = [
        (None, None, None),
        (_source(0), None, None),
        (_source(sources - 1), horizon / 3, 2 * horizon / 3),
        (_source(sources // 2), horizon / 2, None),
        ("absent@nowhere", None, None),
    ]
    for source, since, until in probes:
        if indexed.records(source=source, since=since, until=until) != legacy.records(
            source=source, since=since, until=until
        ):
            return False
    return all(
        indexed.latest(_source(i)) == legacy.latest(_source(i))
        for i in range(sources)
    )


def store_query(sources: int, per_source: int, queries: int) -> dict:
    indexed = NamespaceStore("perf")
    legacy = LegacyNamespaceStore("perf")
    _populate(indexed, sources, per_source)
    _populate(legacy, sources, per_source)

    legacy_seconds, legacy_matched = best_of(
        lambda: _window_queries(legacy, sources, queries)
    )
    indexed_seconds, indexed_matched = best_of(
        lambda: _window_queries(indexed, sources, queries)
    )
    return {
        "sources": sources,
        "records": sources * per_source,
        "queries": queries,
        "legacy": {"seconds": legacy_seconds, "matched": legacy_matched},
        "indexed": {"seconds": indexed_seconds, "matched": indexed_matched},
        "speedup": legacy_seconds / indexed_seconds,
        "equivalent": (
            legacy_matched == indexed_matched
            and _equivalent(indexed, legacy, sources)
        ),
    }


def _hardware_samples(count: int, hosts: int) -> list[list]:
    """``count`` one-row hardware samples, round-robin over ``hosts``."""
    samples = []
    for i in range(count):
        at = 30.0 * (i // hosts) + (i % hosts) * 0.37
        values = (
            round(at + 120.0, 3),
            i % 7,
            round(512000.0 - i * 3.7, 1),
            (round(i * 41.3, 1), round(i * 0.7, 1)),
            42,
            round(i * 5.5, 3),
            round((i % 10) / 10, 4),
            round((i % 4) / 4, 4),
        )
        samples.append([(PROC_SAMPLE, f"cn{i % hosts:04d}/{at:.6f}", values)])
    return samples


def _tree_of(rows: list) -> Node:
    """The tree a publisher without rows builds, path by path."""
    tree = Node()
    for schema, key, values in rows:
        for leaf, value in zip(schema.leaves, values):
            tree[f"{schema.head}/{key}/{leaf}"] = value
    return tree


def _append_all(payloads: list, hosts: int) -> NamespaceStore:
    store = NamespaceStore("hardware")
    for i, payload in enumerate(payloads):
        store.append(float(i), f"hwmon@cn{i % hosts:04d}", payload)
    return store


def row_records(count: int, hosts: int) -> dict:
    """Rows against trees for the same samples: append and rebuild."""
    rows = _hardware_samples(count, hosts)
    trees = [_tree_of(sample) for sample in rows]
    result: dict = {"records": count, "hosts": hosts}
    stores = {}
    for form, payloads in (("rows", rows), ("trees", trees)):
        append_s, store = best_of(lambda: _append_all(payloads, hosts))
        rebuild_s, _ = best_of(lambda: [record.data for record in store])
        stores[form] = store
        result[form] = {
            "append_us": append_s / count * 1e6,
            "rebuild_us": rebuild_s / count * 1e6,
        }
    for as_rows, as_tree in zip(stores["rows"], stores["trees"]):
        assert as_rows.nbytes == as_tree.nbytes, (as_rows, as_tree)
        assert as_rows.data.to_json() == as_tree.data.to_json(), (as_rows, as_tree)
    result["identical"] = True
    return result


def run_all(quick: bool = False) -> dict:
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if quick:
            bench = store_query(sources=16, per_source=400, queries=400)
            rows = row_records(count=2_000, hosts=16)
        else:
            # A Scaling-A-sized deployment: 64 hardware monitors
            # publishing for a long run.
            bench = store_query(sources=64, per_source=4_000, queries=2_000)
            rows = row_records(count=20_000, hosts=64)
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    return {
        "schema": 1,
        "quick": quick,
        "python": sys.version.split()[0],
        "benches": {"store_source_query": bench, "store_row_records": rows},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_perf.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scale the bench down (CI smoke)",
    )
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)
    merged = results
    if os.path.exists(args.out):
        try:
            with open(args.out) as handle:
                merged = json.load(handle)
        except (OSError, ValueError):
            merged = results
        else:
            merged.setdefault("benches", {}).update(results["benches"])
    atomic_write_text(args.out, json.dumps(merged, indent=2, sort_keys=True) + "\n")

    bench = results["benches"]["store_source_query"]
    print(
        f"store_source_query {bench['sources']} sources / "
        f"{bench['records']:,} records / {bench['queries']:,} queries   "
        f"legacy {bench['legacy']['seconds'] * 1e3:7.1f} ms   "
        f"indexed {bench['indexed']['seconds'] * 1e3:7.1f} ms   "
        f"speedup {bench['speedup']:.2f}x   "
        f"equivalent={bench['equivalent']}"
    )
    rows = results["benches"]["store_row_records"]
    print(
        f"store_row_records {rows['records']:,} hardware samples   "
        f"append rows {rows['rows']['append_us']:.2f} us / "
        f"trees {rows['trees']['append_us']:.2f} us   "
        f"rebuild rows {rows['rows']['rebuild_us']:.2f} us / "
        f"trees {rows['trees']['rebuild_us']:.2f} us   "
        f"identical={rows['identical']}"
    )
    print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
