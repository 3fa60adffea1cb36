"""Event-queue backend microbenchmarks -> BENCH_perf.json.

Three benches, heap vs calendar on identical operation streams:

* ``queue_churn`` — raw queue-op cost (schedule bursts, zero-delay
  push/pop churn) against a pending population swept from 10^3 to
  10^6 entries.  This isolates the O(log n)-vs-O(log b) claim: the
  heap's per-op cost grows with the *whole* pending set, the
  calendar's only with the current bucket.
* ``cancel_churn`` — kernel-level schedule/cancel/reschedule traffic
  (the retry/timeout tombstone pattern) through a real
  :class:`Environment` per backend, asserting the kernel counters —
  including tombstone skips — stay byte-identical.
* ``fig11_scale_kernel`` — event-kernel cost at the paper's fig. 11
  scale (1024 nodes, 100k tasks): a full machine's pending population
  (per-slot completion deadlines, per-node monitor timers, walltime
  clock) under (a) the steady-state zero-delay cascade mix that
  dominates real runs — the headline >= 3x ``speedup`` — and (b) a
  full completion-wave replay (``replay_speedup``), where far pops
  come from populated buckets and the advantage is smaller.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_event_queue.py
    PYTHONPATH=src python benchmarks/perf/bench_event_queue.py --quick --out BENCH_perf.json

When ``--out`` already holds a perf-suite JSON (e.g. written by
``bench_kernel.py``), the event-queue benches are merged into its
``benches`` map instead of clobbering it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from perf_common import best_of, write_results

from repro.sim import Environment, make_event_queue

BACKENDS = ("heap", "calendar")

#: Far-future population shape: staggered offsets over a day, the
#: monitor-timer / walltime-deadline band of a long-running workflow.
_SPREAD = 86_400.0


def _interleaved_min(measure, repeats: int) -> dict[str, float]:
    """Best of ``repeats`` timings per backend, backends alternating.

    Alternating the backends inside each round, rather than timing all
    of one backend's rounds and then the other's, spreads a burst of
    load on a shared host over both sides of the comparison instead of
    charging it to whichever backend happened to be running.
    """
    best = {backend: float("inf") for backend in BACKENDS}
    for _ in range(repeats):
        for backend in BACKENDS:
            best[backend] = min(best[backend], measure(backend))
    return best


def _populate(queue, pending: int) -> int:
    for eid in range(pending):
        queue.push(((eid * 863.0) % _SPREAD, 1, eid, None))
    return pending


def _schedule_burst(backend: str, pending: int, ops: int) -> float:
    """Push ``ops`` entries at mixed delays into an n-deep queue.

    Delays sweep 0..1h from the current instant — the shape of retry
    clocks, monitor ticks, and walltime slices a live run schedules —
    so most land in future buckets (O(1) append for the calendar,
    O(log n) sift for the heap).
    """
    queue = make_event_queue(backend)
    eid = _populate(queue, pending)
    start = time.perf_counter()
    for i in range(ops):
        queue.push((float((i * 97) % 3600), i % 2, eid, None))
        eid += 1
    return time.perf_counter() - start


def _pop_churn(backend: str, pending: int, ops: int) -> float:
    """Zero/short-delay push/pop churn riding an n-deep population."""
    queue = make_event_queue(backend)
    eid = _populate(queue, pending)
    now = 0.0
    start = time.perf_counter()
    for _ in range(ops):
        queue.push((now, 0, eid, None))
        eid += 1
        queue.push((now + 0.001, 1, eid, None))
        eid += 1
        queue.pop()
        now = queue.pop()[0]
    return time.perf_counter() - start


def queue_churn(pending_levels: tuple[int, ...], ops: int) -> dict:
    levels = {}
    for pending in pending_levels:
        # The bench functions time only the op loop, not the _populate
        # setup, so min the *returned* elapsed values.
        schedule = _interleaved_min(
            lambda b, n=pending: _schedule_burst(b, n, ops), 3
        )
        pop = _interleaved_min(lambda b, n=pending: _pop_churn(b, n, ops), 3)
        per_backend = {
            backend: {
                "schedule_seconds": schedule[backend],
                "pop_churn_seconds": pop[backend],
                "seconds": schedule[backend] + pop[backend],
            }
            for backend in BACKENDS
        }
        heap_s = per_backend["heap"]["seconds"]
        cal_s = per_backend["calendar"]["seconds"]
        levels[str(pending)] = {
            **per_backend,
            "speedup": heap_s / cal_s if cal_s > 0 else None,
        }
    return {"ops": ops, "levels": levels}


def cancel_churn(n: int) -> dict:
    """Schedule/cancel/reschedule traffic through a real kernel.

    Every third timeout is tombstoned (the losing-clock pattern of the
    retry layer) and half of those immediately rescheduled; the drain
    then reaps the tombstones lazily.  Counters must not depend on the
    backend.
    """

    def run(backend):
        env = Environment(sanitize=False, event_queue=backend)
        live = []
        for i in range(n):
            timeout = env.timeout(1.0 + (i % 60))
            if i % 3 == 0:
                timeout.cancel_scheduled()
                if i % 6 == 0:
                    live.append(env.timeout(0.5 + (i % 7)))
            else:
                live.append(timeout)
        env.run()
        return env

    out = {}
    counters = {}
    for backend in BACKENDS:
        seconds, env = best_of(lambda b=backend: run(b))
        out[backend] = {"seconds": seconds}
        counters[backend] = env.kernel_counters()
    assert counters["heap"] == counters["calendar"], (
        "kernel counters diverged between backends",
        counters,
    )
    heap_s = out["heap"]["seconds"]
    cal_s = out["calendar"]["seconds"]
    return {
        "timeouts": n,
        **out,
        "speedup": heap_s / cal_s if cal_s > 0 else None,
        "counters": counters["calendar"],
    }


def fig11_scale_kernel(
    nodes: int, tasks: int, slots_per_node: int = 42
) -> dict:
    """Event-kernel cost at the paper's fig. 11 scale, two measures.

    Both drive a pending population shaped like a full monitored
    machine mid-run.  A measured run holds ~2.1 pending entries per
    occupied slot (peak_heap_size 11,139 against 5,376 slots at 128
    nodes / 10k tasks: the completion deadline plus an in-flight
    timeout/tombstone clock), so the population carries one deadline
    and one companion clock per slot (~86k at 1024 nodes), plus
    staggered per-node monitor timers and the pilot walltime clock.

    * ``speedup`` (headline) — steady-state cascade cost: the
      zero-delay URGENT traffic that dominates a real run
      (``events_executed`` is ~10x the task count, and nearly all of
      those — grants, store dispatch, RPC hops — fire at the *same
      instant* as the event that caused them), measured as same-time
      push/pop bursts against the parked population.  The heap pays
      O(log pending) per op for events that never interact with the
      far band; the calendar pays O(log current-bucket).
    * ``replay_speedup`` — a full wave replay: every completion pops
      its far deadline, fires cascade hops, and replenishes the band
      180 s out, through all ``tasks`` completions.  Far pops come
      from populated buckets, so the advantage is smaller; reported
      alongside the headline so the record stays honest about both
      regimes.
    """
    concurrent = min(tasks, nodes * slots_per_node)

    def build_pending(backend):
        queue = make_event_queue(backend)
        eid = 0
        for node in range(nodes):
            queue.push((60.0 * (1.0 + node / nodes), 1, eid, "monitor"))
            eid += 1
        for i in range(concurrent):
            queue.push(
                (180.0 + (i * 7) % 20 + (i % 997) * 1e-4, 1, eid, "task")
            )
            eid += 1
            # Companion clock per in-flight task: the timeout/retry
            # band that a measured run shows riding behind the
            # completion deadlines (mostly tombstoned, still pending).
            queue.push(
                (240.0 + (i * 13) % 60 + (i % 997) * 1e-4, 1, eid, "clock")
            )
            eid += 1
        queue.push((30 * 24 * 3600.0, 1, eid, "walltime"))
        eid += 1
        return queue, eid

    def cascade(backend):
        queue, eid = build_pending(backend)
        now = 0.0
        start = time.perf_counter()
        for _ in range(tasks):
            queue.push((now, 0, eid, None))
            eid += 1
            queue.push((now, 0, eid, None))
            eid += 1
            queue.pop()
            queue.pop()
        return time.perf_counter() - start

    def replay(backend):
        queue, eid = build_pending(backend)
        launched = concurrent
        done = 0
        now = 0.0
        start = time.perf_counter()
        while done < tasks:
            when, _prio, _eid, kind = queue.pop()
            now = when
            if kind == "task":
                done += 1
                for _ in range(8):
                    queue.push((now, 0, eid, "hop"))
                    eid += 1
                    queue.pop()
                if launched < tasks:
                    queue.push(
                        (now + 180.0 + (eid * 7) % 20, 1, eid, "task")
                    )
                    eid += 1
                    launched += 1
            elif kind == "monitor" and done < tasks:
                queue.push((now + 60.0, 1, eid, "monitor"))
                eid += 1
        return time.perf_counter() - start

    cascade_s = _interleaved_min(cascade, 5)
    replay_s = _interleaved_min(replay, 3)
    out = {
        backend: {
            "cascade_seconds": cascade_s[backend],
            "replay_seconds": replay_s[backend],
        }
        for backend in BACKENDS
    }
    heap = out["heap"]
    cal = out["calendar"]
    return {
        "nodes": nodes,
        "tasks": tasks,
        "concurrent": concurrent,
        **out,
        "speedup": heap["cascade_seconds"] / cal["cascade_seconds"]
        if cal["cascade_seconds"] > 0
        else None,
        "replay_speedup": heap["replay_seconds"] / cal["replay_seconds"]
        if cal["replay_seconds"] > 0
        else None,
    }


def run_all(quick: bool = False) -> dict:
    # Microbench hygiene: collector pauses otherwise land inside timed
    # regions (the replay legs allocate millions of entry tuples).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_all(quick)
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()


def _run_all(quick: bool) -> dict:
    if quick:
        pending_levels = (1_000, 10_000, 100_000)
        ops = 20_000
        cancel_n = 30_000
        nodes, tasks = 512, 20_000
    else:
        pending_levels = (1_000, 10_000, 100_000, 1_000_000)
        ops = 50_000
        cancel_n = 100_000
        # Summit: 4608 nodes.  At 42 usable slots per node the machine
        # holds all 100k tasks in flight at once, so the pending set
        # peaks around 2 entries per task (~205k with monitors).
        nodes, tasks = 4_608, 100_000
    return {
        "schema": 1,
        "quick": quick,
        "python": sys.version.split()[0],
        "benches": {
            "event_queue_churn": queue_churn(pending_levels, ops),
            "event_queue_cancel": cancel_churn(cancel_n),
            "fig11_scale_kernel": fig11_scale_kernel(nodes, tasks),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_perf.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scale the benches down (CI smoke)",
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
    write_results(args.out, merged)

    churn = results["benches"]["event_queue_churn"]
    for pending, level in churn["levels"].items():
        print(
            f"queue_churn @{int(pending):>9,} pending   "
            f"heap {level['heap']['seconds'] * 1e3:7.1f} ms   "
            f"calendar {level['calendar']['seconds'] * 1e3:7.1f} ms   "
            f"speedup {level['speedup']:.2f}x"
        )
    cancel = results["benches"]["event_queue_cancel"]
    print(
        f"cancel_churn     {cancel['calendar']['seconds'] * 1e3:9.1f} ms   "
        f"(heap {cancel['heap']['seconds'] * 1e3:.1f} ms, "
        f"speedup {cancel['speedup']:.2f}x)"
    )
    fig11 = results["benches"]["fig11_scale_kernel"]
    print(
        f"fig11_scale_kernel {fig11['nodes']} nodes / {fig11['tasks']:,} tasks   "
        f"cascade {fig11['speedup']:.2f}x "
        f"(heap {fig11['heap']['cascade_seconds'] * 1e3:.1f} ms, "
        f"calendar {fig11['calendar']['cascade_seconds'] * 1e3:.1f} ms)   "
        f"replay {fig11['replay_speedup']:.2f}x"
    )
    print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
