"""End-to-end host-time benchmark of the simulator, with a per-layer ledger.

Every simulation runs in a fresh child process (``scenarios.py``), one
at a time, so each sample pays its own imports and starts from an empty
heap.  Four workloads (see README.md for why each is in the set):
``overload``, ``overload-observed``, ``fig11-none`` and ``facility``.

Modes::

    # All workloads, rounds interleaved, seeds 3/17/33, then one traced
    # run per workload; prints the tables and merges the results into
    # BENCH_perf.json under the "e2e" key.
    python3 benchmarks/e2e/bench_e2e.py [--rounds 5] [--out BENCH_perf.json]

    # One workload for a fixed time; the last stdout line is one JSON
    # object (end-to-end metrics with --trace 0, per-layer with 1).
    python3 benchmarks/e2e/bench_e2e.py --workload overload --seed 1 \\
        --seconds 20 --trace 0

    # Median delta per (metric, workload) against BENCHMARK.json bounds.
    python3 benchmarks/e2e/bench_e2e.py --compare BASE.json NEW.json

    # Recompute the golden run digests (only when the simulated
    # behaviour is meant to change).
    python3 benchmarks/e2e/bench_e2e.py --write-digests
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from scenarios import GOLDEN_OF, LAYERS, ROOT, SEED_POOL, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD = HERE / "scenarios.py"
DIGESTS = HERE / "e2e_digests.json"

#: The default report's seeds: the repository's differential seeds.
DEFAULT_SEEDS = (3, 17, 33)

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{
        f"{layer}.{metric}": unit
        for layer in LAYERS
        for metric, unit in (("self_s", "s"), ("self_share", "share"), ("calls", "count"))
    },
    "conduit.leaves_calls": "count",
    "conduit.nbytes_calls": "count",
    "conduit.nodes_built": "count",
    "conduit.split_calls": "count",
    "sim.events_executed": "count",
    "sim.events_scheduled": "count",
    "sim.peak_pending": "count",
    "sim.tombstones_skipped": "count",
    "sim.events_per_host_s": "1/s",
    "rp.place_attempts": "count",
    "rp.place_yield": "ratio",
    "platform.rateshare_reschedules": "count",
    "soma.publishes": "count",
    "soma.store_appends": "count",
    "soma.records_stored": "count",
    "messaging.rpc_calls": "count",
    "telemetry.spans": "count",
    "provenance.graph_events": "count",
    "provenance.graph_edges": "count",
    "provenance.build_graph_s": "s",
    "provenance.critical_path_s": "s",
    "trace_overhead": "x",
}

#: A run of one workload must end within this many seconds.
RUN_DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a simulation failure)."""


def run_child(
    workload: str,
    seed: int,
    trace: bool = False,
    setup_only: bool = False,
    timeout: float = 600.0,
) -> dict:
    """Run one simulation in a fresh process and return its report.

    A child that crashes or times out yields a report whose only key is
    ``failures``; the timeout kills it and waits for it to exit.
    """
    cmd = [sys.executable, str(CHILD), workload, str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.time())]  # simlint: disable=wall-clock(host-time measurement of the simulator, not simulation state)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"{workload} seed {seed}: timed out after {timeout:.0f} s"]}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return {"failures": [f"{workload} seed {seed}: exit {proc.returncode}: {tail}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())["digests"]


def check_digest(report: dict, digests: dict[str, dict[str, str]]) -> None:
    """Add a failure to ``report`` unless its digest equals the golden."""
    if "digest" not in report:
        return
    golden = digests.get(GOLDEN_OF[report["workload"]], {}).get(str(report["seed"]))
    if golden is None:
        report["failures"].append(f"no golden digest for seed {report['seed']}")
    elif report["digest"] != golden:
        report["failures"].append(
            f"run digest differs from its golden (seed {report['seed']})"
        )


def simulate(
    workload: str,
    seed: int,
    digests: dict[str, dict[str, str]],
    trace: bool = False,
    timeout: float = 600.0,
) -> dict:
    """One simulation, with its digest checked against the golden."""
    report = run_child(workload, seed, trace=trace, timeout=timeout)
    check_digest(report, digests)
    return report


def summarize(values: list[float]) -> dict:
    """Median and quartiles (no tail percentile: too few samples)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measured(samples: list[dict]) -> list[dict]:
    """The samples that produced measurements (the child did not crash)."""
    return [s for s in samples if "wall_s" in s]


def e2e_metrics(samples: list[dict]) -> dict[str, dict]:
    """Median of each end-to-end metric over the measured samples."""
    plain = measured(samples)
    return {
        name: {"value": statistics.median(s[name] for s in plain), "unit": unit}
        for name, unit in E2E_UNITS.items()
    }


def ledger_metrics(samples: list[dict], traced: dict) -> dict[str, float]:
    """Per-layer metrics: the traced run's ledger plus plain-run timings."""
    plain = measured(samples)
    if "ledger" not in traced or not plain:
        raise HarnessError("; ".join(traced.get("failures", [])) or "no plain samples")
    values = dict(traced["ledger"])
    values["sim.events_per_host_s"] = statistics.median(
        s["events_executed"] / s["wall_s"] for s in plain
    )
    values["provenance.build_graph_s"] = statistics.median(
        s["build_graph_s"] for s in plain
    )
    values["provenance.critical_path_s"] = statistics.median(
        s["critical_path_s"] for s in plain
    )
    values["trace_overhead"] = traced["wall_s"] / statistics.median(
        s["wall_s"] for s in plain
    )
    return values


# -- one workload for a fixed time (the BENCHMARK.json contract) ----------------


def seed_order(seed: int) -> list[int]:
    """The scenario seeds one run cycles through, drawn from ``seed``."""
    return random.Random(seed).sample(SEED_POOL, len(SEED_POOL))


def bench_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()  # simlint: disable=wall-clock(host-time measurement of the simulator, not simulation state)

    def elapsed() -> float:
        return time.perf_counter() - start  # simlint: disable=wall-clock(host-time measurement of the simulator, not simulation state)

    def remaining() -> float:
        return max(1.0, RUN_DEADLINE_S - elapsed())

    order = seed_order(seed)
    digests = load_digests()
    # Compiles bytecode and warms the page cache: users pay neither on
    # every run, so no sample should.
    warm = run_child(workload, order[0], setup_only=True, timeout=remaining())
    if "setup_s" not in warm:
        raise HarnessError("; ".join(warm["failures"]))

    samples: list[dict] = []
    while not samples or elapsed() < seconds:
        seed_i = order[len(samples) % len(order)]
        report = simulate(workload, seed_i, digests, timeout=remaining())
        samples.append(report)
        if "wall_s" not in report:
            break  # a crashed or hung child: do not spend the budget on more
    plain = measured(samples)
    if not plain:
        raise HarnessError("; ".join(samples[-1]["failures"]))

    checked = list(samples)
    if trace:
        traced = simulate(workload, order[0], digests, trace=True, timeout=remaining())
        checked.append(traced)
        values = ledger_metrics(samples, traced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = e2e_metrics(samples)
    for line in (f for s in checked for f in s["failures"]):
        print(f"FAILED {line}")
    for name, unit in E2E_UNITS.items():
        stats = summarize([s[name] for s in plain])
        print(
            f"{workload} {name}: median {stats['median']:.4f} {unit} "
            f"(q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, n {stats['n']})"
        )
    failed = sum(1 for s in checked if s["failures"])
    return {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }


# -- all workloads, interleaved rounds ---------------------------------------------


def bench_all(rounds: int, seeds: tuple[int, ...] = DEFAULT_SEEDS) -> dict:
    digests = load_digests()
    for workload in WORKLOADS:
        warm = run_child(workload, seeds[0], setup_only=True)
        if "setup_s" not in warm:
            raise HarnessError("; ".join(warm["failures"]))
    samples: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    # Round-robin, so drift on the machine hits every workload alike.
    for round_no in range(rounds):
        for workload in WORKLOADS:
            for seed in seeds:
                samples[workload].append(simulate(workload, seed, digests))
        print(f"round {round_no + 1}/{rounds} done", flush=True)

    out: dict = {}
    for workload in WORKLOADS:
        runs = samples[workload]
        plain = measured(runs)
        if not plain:
            raise HarnessError(f"{workload}: every simulation crashed")
        traced = simulate(workload, seeds[0], digests, trace=True)
        values = ledger_metrics(runs, traced)
        checked = runs + [traced]
        failed = sum(1 for s in checked if s["failures"])
        out[workload] = {
            "attempted": len(checked),
            "failed": failed,
            "failed_share": failed / len(checked),
            "failures": [f for s in checked for f in s["failures"]],
            "end_to_end": {
                name: {"unit": unit, **summarize([s[name] for s in plain])}
                for name, unit in E2E_UNITS.items()
            },
            "per_layer": {
                name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER.items()
            },
        }
    return {
        "schema": 1,
        "python": sys.version.split()[0],
        "rounds": rounds,
        "seeds": list(seeds),
        "workloads": out,
    }


def render(results: dict) -> str:
    workloads = list(results["workloads"])
    lines = [
        f"{'workload':18s} {'metric':12s} {'unit':5s} {'median':>10s} "
        f"{'q1':>10s} {'q3':>10s} {'n':>3s}"
    ]
    for workload in workloads:
        entry = results["workloads"][workload]
        for name, stats in entry["end_to_end"].items():
            lines.append(
                f"{workload:18s} {name:12s} {stats['unit']:5s} {stats['median']:10.4f} "
                f"{stats['q1']:10.4f} {stats['q3']:10.4f} {stats['n']:3d}"
            )
        lines.append(
            f"{workload:18s} {'failed_share':12s} {'share':5s} "
            f"{entry['failed_share']:10.4f}   ({entry['failed']}/{entry['attempted']})"
        )
    lines.append("")
    lines.append("per-layer metrics (one traced run per workload, seed "
                 f"{results['seeds'][0]}):")
    lines.append(f"{'metric':32s} {'unit':6s} " + " ".join(f"{w:>18s}" for w in workloads))
    for name, unit in PER_LAYER.items():
        cells = []
        for workload in workloads:
            value = results["workloads"][workload]["per_layer"][name]["value"]
            cells.append(f"{value:18d}" if unit == "count" else f"{value:18.6g}")
        lines.append(f"{name:32s} {unit:6s} " + " ".join(cells))
    for workload in workloads:
        for failure in results["workloads"][workload]["failures"]:
            lines.append(f"FAILED {failure}")
    return "\n".join(lines)


def merge_results(path: str, key: str, results: dict) -> None:
    """Write ``results`` under ``key`` of the JSON file at ``path``.

    Other keys already in the file (other benches' results) are kept;
    the file is replaced atomically.
    """
    target = Path(path)
    merged = json.loads(target.read_text()) if target.exists() else {}
    merged[key] = results
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, target)


# -- comparison -------------------------------------------------------------------


def load_results(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    return data.get("e2e", data)["workloads"]


def compare(base_path: str, new_path: str) -> int:
    """Print each median delta against its bound; 1 on any breach."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, new = load_results(base_path), load_results(new_path)
    breaches = 0
    print(f"{'workload':18s} {'metric':12s} {'base':>10s} {'new':>10s} "
          f"{'delta':>8s} {'bound':>7s}")
    for workload in WORKLOADS:
        if workload not in base or workload not in new:
            print(f"{workload:18s} missing from one side")
            breaches += 1
            continue
        for name, bound in bounds.items():
            a = base[workload]["end_to_end"][name]["median"]
            b = new[workload]["end_to_end"][name]["median"]
            delta = b / a - 1.0
            verdict = "BREACH" if delta > bound else "ok"
            breaches += verdict == "BREACH"
            print(f"{workload:18s} {name:12s} {a:10.4f} {b:10.4f} "
                  f"{delta:+8.2%} {bound:+7.0%} {verdict}")
        a, b = base[workload]["failed_share"], new[workload]["failed_share"]
        verdict = "BREACH" if b > a else "ok"
        breaches += verdict == "BREACH"
        print(f"{workload:18s} {'failed_share':12s} {a:10.4f} {b:10.4f} "
              f"{'':8s} {'any':>7s} {verdict}")
        for name, unit in PER_LAYER.items():
            if unit != "count":
                continue
            a = base[workload]["per_layer"][name]["value"]
            b = new[workload]["per_layer"][name]["value"]
            if a != b:
                print(f"{workload:18s} count {name} changed: {a} -> {b}")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


# -- golden digests ------------------------------------------------------------------


def write_digests() -> int:
    digests: dict[str, dict[str, str]] = {}
    for workload in sorted(set(GOLDEN_OF.values())):
        digests[workload] = {}
        for seed in SEED_POOL:
            report = run_child(workload, seed)
            if report["failures"]:
                raise HarnessError("; ".join(report["failures"]))
            digests[workload][str(seed)] = report["digest"]
            print(f"{workload} seed {seed}: {report['digest']}", flush=True)
    # Zero perturbation: the observed run must reproduce the plain one.
    seed = DEFAULT_SEEDS[0]
    observed = run_child("overload-observed", seed)
    if observed["failures"] or observed["digest"] != digests["overload"][str(seed)]:
        raise HarnessError(
            f"overload-observed seed {seed} does not reproduce the overload "
            f"digest: {observed['failures'] or observed['digest']}"
        )
    DIGESTS.write_text(
        json.dumps({"schema": 1, "digests": digests}, indent=2, sort_keys=True) + "\n"
    )
    print(f"golden digests written to {DIGESTS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2],
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="benchmark one workload")
    parser.add_argument("--seed", type=int, default=0, help="draws the scenario seeds")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=5, help="rounds (all workloads)")
    parser.add_argument("--out", default="BENCH_perf.json", help="results file (all workloads)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_digests:
            return write_digests()
        if args.workload:
            result = bench_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result, sort_keys=True))
            return 0
        results = bench_all(max(1, args.rounds))
    except HarnessError as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 1
    print(render(results))
    merge_results(args.out, "e2e", results)
    print(f"results merged into {args.out} under 'e2e'")
    failed = any(entry["failed"] for entry in results["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
