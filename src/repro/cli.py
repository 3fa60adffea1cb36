"""Command-line interface: run paper experiments from a shell.

Usage::

    python -m repro info
    python -m repro openfoam --experiment tuning --seed 11
    python -m repro ddmd --experiment adaptive
    python -m repro scaling --pipelines 16 --modes none shared exclusive
    python -m repro sweep --jobs 4 --manifest sweep.json
    python -m repro bottleneck battery
    python -m repro lint src/repro
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type: an integer >= ``minimum``, else a one-line usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


#: Counts are at least 1; seeds at least 0, since numpy rejects negative seeds.
_at_least_one = _int_at_least(1)
_seed = _int_at_least(0)


def _positive_finite(text: str) -> float:
    """argparse type for factors and periods: a finite number > 0, else a one-line usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Enabling Performance Observability for "
            "Heterogeneous HPC Workflows with SOMA' (ICPP 2024)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the system inventory")

    p_open = sub.add_parser("openfoam", help="run an OpenFOAM experiment")
    p_open.add_argument(
        "--experiment", choices=("tuning", "overload"), default="tuning"
    )
    p_open.add_argument("--seed", type=_seed, default=11)

    p_ddmd = sub.add_parser("ddmd", help="run a DDMD mini-app experiment")
    p_ddmd.add_argument(
        "--experiment", choices=("tuning", "adaptive"), default="tuning"
    )
    p_ddmd.add_argument("--seed", type=_seed, default=7)

    p_scale = sub.add_parser(
        "scaling", help="run a Scaling-B style comparison"
    )
    p_scale.add_argument("--pipelines", type=_at_least_one, default=16)
    p_scale.add_argument(
        "--modes",
        nargs="+",
        default=["none", "shared", "exclusive"],
        choices=["none", "shared", "exclusive"],
    )
    p_scale.add_argument("--frequent", action="store_true")
    p_scale.add_argument("--seed", type=_seed, default=5)

    p_sweep = sub.add_parser(
        "sweep",
        help="regenerate paper artifacts via the parallel sweep engine",
        description=(
            "Shard the full experiment matrix (every benchmarks/results/ "
            "artifact) over a worker pool with a crash-safe, "
            "content-addressed result cache.  Re-running an interrupted "
            "sweep never re-executes a completed cell."
        ),
    )
    p_sweep.add_argument(
        "--jobs", "-j", type=_at_least_one, default=1,
        help="worker processes (default: 1, the serial reference path)",
    )
    p_sweep.add_argument(
        "--filter", action="append", default=None, metavar="GLOB",
        help="restrict to artifacts/cells matching the glob "
        "(repeatable; e.g. --filter 'fig*' --filter table1)",
    )
    p_sweep.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="also write the merged manifest JSON to PATH",
    )
    p_sweep.add_argument(
        "--dir", default=".sweep", dest="sweep_dir", metavar="DIR",
        help="sweep directory holding the result cache (default: .sweep)",
    )
    p_sweep.add_argument(
        "--results-dir", default="benchmarks/results", metavar="DIR",
        help="where regenerated artifacts go (default: benchmarks/results)",
    )
    p_sweep.add_argument(
        "--list", action="store_true", dest="list_cells",
        help="print the planned cells/artifacts and exit without running",
    )
    p_sweep.add_argument(
        "--no-artifacts", action="store_true",
        help="run the cells but skip rendering the artifact files",
    )
    p_sweep.add_argument(
        "--telemetry", action="store_true",
        help="run every cell with span telemetry enabled and export a "
        "Chrome trace per cell under <dir>/traces (forces recompute; "
        "results are byte-identical to a plain run)",
    )

    p_trace = sub.add_parser(
        "trace",
        help="run one experiment with causal span tracing and export "
        "a Perfetto-loadable Chrome trace",
        description=(
            "Run an experiment with repro.telemetry enabled (the "
            "simulated run is byte-identical to an untraced one), write "
            "the span tree as Chrome trace-event JSON, and print a "
            "flame summary plus the top-K critical-path spans."
        ),
    )
    p_trace.add_argument(
        "experiment",
        choices=("ddmd", "ddmd-adaptive", "openfoam", "openfoam-overload"),
        help="which experiment to trace",
    )
    p_trace.add_argument("--seed", type=_seed, default=7)
    p_trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="trace JSON path (default: traces/<experiment>.trace.json)",
    )
    p_trace.add_argument(
        "--top", type=_at_least_one, default=10,
        help="rows in the critical-path span table (default: 10)",
    )

    p_why = sub.add_parser(
        "why",
        help="explain why an event finished when it did (happens-before "
        "chain + critical path)",
        description=(
            "Run one experiment with provenance capture on (the run is "
            "byte-identical to an uninstrumented one), stitch the spans "
            "and cross-task interactions into the run graph, and print "
            "the most-constraining causal chain for TARGET plus the "
            "critical-path edge attribution for the whole run."
        ),
    )
    p_why.add_argument(
        "target",
        nargs="?",
        default="run",
        help="a task uid (task.000012), a span id, a span-label "
        "substring, or 'run' for the whole-run makespan (default: run)",
    )
    p_why.add_argument(
        "--experiment",
        choices=("ddmd", "ddmd-adaptive", "openfoam", "openfoam-overload"),
        default="ddmd-adaptive",
        help="which experiment to run (default: ddmd-adaptive)",
    )
    p_why.add_argument("--seed", type=_seed, default=7)
    p_why.add_argument(
        "--top", type=_at_least_one, default=20,
        help="costliest hops kept in the chain rendering (default: 20)",
    )
    p_why.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the critical-path table to PATH",
    )

    p_bneck = sub.add_parser(
        "bottleneck",
        help="run the bottleneck detectors over a named scenario",
        description=(
            "Run one named scenario (or the whole battery) through the "
            "repro.analysis.bottleneck detectors and report the "
            "findings.  Every scenario has a known truth: clean runs "
            "must produce zero findings, fault runs must produce "
            "exactly their planted bottleneck kind — the exit status "
            "reflects whether the detectors agreed."
        ),
    )
    p_bneck.add_argument(
        "experiment",
        nargs="?",
        default="battery",
        metavar="SCENARIO",
        help="a scenario name, or 'battery' for all of them "
        "(default: battery; see repro.analysis.bottleneck.SCENARIOS)",
    )
    p_bneck.add_argument("--seed", type=_seed, default=42)
    p_bneck.add_argument(
        "--json", action="store_true",
        help="emit findings as JSON instead of rendered text",
    )
    p_bneck.add_argument(
        "--calibrate", action="store_true",
        help="re-derive the thresholds from the clean scenarios "
        "instead of running detectors",
    )
    p_bneck.add_argument(
        "--margin", type=_positive_finite, default=None, metavar="FACTOR",
        help="calibration safety margin (default: 1.5; only with "
        "--calibrate)",
    )

    p_fac = sub.add_parser(
        "facility",
        help="run the shared-facility SOMA scenario (sharded, multi-tenant)",
        description=(
            "Run hundreds of concurrent pilots (tenants) against one "
            "sharded SOMA deployment and print the facility manifest: "
            "degradation accounting (drops, gaps, stalls), per-shard "
            "store balance, and ingest queue statistics.  --chaos arms "
            "the canonical shard-outage + tenant-flood plan."
        ),
    )
    p_fac.add_argument("--pilots", type=int, default=200)
    p_fac.add_argument("--shards", type=int, default=4)
    p_fac.add_argument("--service-nodes", type=int, default=4)
    p_fac.add_argument("--tasks-per-pilot", type=int, default=500)
    p_fac.add_argument("--concurrency", type=int, default=8)
    p_fac.add_argument("--period", type=_positive_finite, default=60.0)
    p_fac.add_argument("--seed", type=_seed, default=3)
    p_fac.add_argument(
        "--admission-rate", type=float, default=None, metavar="TOKENS_PER_S",
        help="per-tenant publish budget (default: no admission control)",
    )
    p_fac.add_argument(
        "--degrade", choices=("drop", "summarize"), default="drop",
        help="client behaviour for refused samples",
    )
    p_fac.add_argument(
        "--chaos", action="store_true",
        help="inject the canonical shard outage + tenant flood",
    )
    p_fac.add_argument(
        "--json", action="store_true",
        help="emit the manifest as JSON instead of rendered text",
    )

    p_lint = sub.add_parser(
        "lint",
        help="run simlint (determinism/lifecycle static analysis)",
        description=(
            "Walk the given files/directories with the simlint flow rules "
            "and report determinism and event-lifecycle hazards.  Exits "
            "non-zero on any unsuppressed finding; suppress with an "
            "inline `# simlint: disable=RULE(reason)` comment."
        ),
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    p_lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed findings with their justifications",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    # A subcommand reports its own errors under its own usage line.
    for command in sub.choices.values():
        command.set_defaults(parser=command)
    return parser


def _cmd_info() -> int:
    import pkgutil

    from . import __path__ as package_path
    from . import __version__
    from .platform import SUMMIT

    print(f"repro {__version__} — SOMA/RP/EnTK reproduction stack")
    print(
        f"platform model: {SUMMIT.name}-like, "
        f"{SUMMIT.node.usable_cores} usable cores + "
        f"{SUMMIT.node.gpus} GPUs per node, "
        f"memory-bandwidth capacity {SUMMIT.node.memory_bandwidth} "
        "core-equivalents"
    )
    subsystems = sorted(m.name for m in pkgutil.iter_modules(package_path) if m.ispkg)
    print(f"subsystems: {', '.join(subsystems)}")
    print("benchmarks: one per paper table/figure "
          "(pytest benchmarks/ --benchmark-only)")
    return 0


def _cmd_openfoam(args: argparse.Namespace) -> int:
    from .analysis import render_boxes
    from .experiments import (
        OVERLOAD,
        TUNING,
        execution_times_by_ranks,
        run_openfoam_experiment,
    )

    experiment = TUNING if args.experiment == "tuning" else OVERLOAD
    print(f"running OpenFOAM '{experiment.name}' (seed {args.seed}) ...")
    result = run_openfoam_experiment(experiment, seed=args.seed)
    print(f"makespan: {result.makespan:.0f} simulated seconds")
    times = execution_times_by_ranks(result)
    print(
        render_boxes(
            {f"{r} ranks": v for r, v in sorted(times.items())},
            title="execution time per configuration",
        )
    )
    return 0


def _cmd_ddmd(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .experiments import (
        adaptive_experiment,
        run_ddmd_experiment,
        stage_durations,
        tuning_experiment,
    )

    experiment = (
        tuning_experiment()
        if args.experiment == "tuning"
        else adaptive_experiment()
    )
    print(f"running DDMD '{experiment.name}' (seed {args.seed}) ...")
    result = run_ddmd_experiment(
        experiment, seed=args.seed, adaptive_analysis=True
    )
    print(f"makespan: {result.makespan:.0f} simulated seconds")
    rows = []
    for stage in ("simulation", "training", "selection", "agent"):
        durations = stage_durations(result, stage)
        rows.append(
            [stage, len(durations), f"{np.mean(durations):.1f}"]
        )
    print(render_table(["stage", "runs", "mean duration (s)"], rows))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .analysis import compare_runtimes, render_boxes
    from .experiments import SCALING_B, pipeline_durations, run_ddmd_experiment

    durations: dict[str, list[float]] = {}
    for mode in args.modes:
        exp = SCALING_B(args.pipelines, mode, frequent=args.frequent)
        if args.pipelines < 64:
            exp = exp.with_updates(
                soma_nodes=0 if mode == "none" else max(1, args.pipelines // 16),
                soma_ranks_per_namespace=max(1, args.pipelines // 2),
            )
        print(f"running {mode} with {args.pipelines} pipelines ...")
        result = run_ddmd_experiment(exp, seed=args.seed)
        durations[mode] = pipeline_durations(result)
    print(render_boxes(durations, title="pipeline runtimes"))
    if "none" in durations and len(durations) > 1:
        baseline = durations.pop("none")
        for res in compare_runtimes(baseline, durations):
            print(
                f"{res.config:12s} {res.overhead_percent:+6.2f}% vs baseline"
            )
    return 0


def _select_cells(matrix, artifacts, patterns):
    """Resolve --filter globs against artifact names and cell keys."""
    from fnmatch import fnmatchcase

    if not patterns:
        return matrix, dict(artifacts)
    keys: set[str] = set()
    chosen_artifacts = {}
    for name, artifact in artifacts.items():
        if any(fnmatchcase(name, pat) for pat in patterns):
            chosen_artifacts[name] = artifact
            keys.update(artifact.cells)
    for cell in matrix:
        if any(fnmatchcase(cell.key, pat) for pat in patterns):
            keys.add(cell.key)
    if not keys:
        raise ValueError(
            f"--filter {patterns} matched no artifact or cell; known "
            f"artifacts: {', '.join(sorted(artifacts))}"
        )
    selected = matrix.subset(keys)
    # An artifact renders iff every cell it needs is in the selection.
    for name, artifact in artifacts.items():
        if name not in chosen_artifacts and all(
            key in keys for key in artifact.cells
        ):
            chosen_artifacts[name] = artifact
    return selected, chosen_artifacts


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from pathlib import Path

    from .analysis.report import render_manifest
    from .sweep import (
        SweepInterrupted,
        atomic_write_json,
        atomic_write_text,
        default_matrix,
        plan_shards,
        run_sweep,
    )

    matrix, artifacts = default_matrix()
    try:
        spec, selected_artifacts = _select_cells(
            matrix, artifacts, args.filter
        )
    except ValueError as exc:
        parser.error(str(exc))

    if args.list_cells:
        plan = plan_shards(spec.cells, args.jobs)
        print(
            f"{len(spec)} cell(s), {len(selected_artifacts)} artifact(s), "
            f"{args.jobs} job(s); predicted makespan "
            f"{plan.predicted_makespan:.1f}s of {plan.serial_seconds:.1f}s "
            "serial (heuristic)"
        )
        for i, shard in enumerate(plan.shards):
            keys = ", ".join(c.key for c in shard)
            print(f"  shard {i}: {keys}")
        print("artifacts: " + ", ".join(sorted(selected_artifacts)))
        return 0

    telemetry_dir = (
        Path(args.sweep_dir) / "traces" if args.telemetry else None
    )
    interrupted: SweepInterrupted | None = None
    try:
        run = run_sweep(
            spec,
            jobs=args.jobs,
            sweep_dir=args.sweep_dir,
            progress=print,
            telemetry_dir=telemetry_dir,
        )
    except SweepInterrupted as exc:
        interrupted = exc
        run = exc.run
    if telemetry_dir is not None:
        traces = sorted(telemetry_dir.glob("*.trace.json"))
        print(f"[{len(traces)} cell trace(s) under {telemetry_dir}]")

    if args.manifest:
        atomic_write_json(args.manifest, run.manifest)
        print(f"[manifest written to {args.manifest}]")

    if interrupted is not None:
        print(f"sweep interrupted: {interrupted}")
        print("re-run the same command to compute the remaining cells")
        return 3

    if not args.no_artifacts:
        results_dir = Path(args.results_dir)
        for name in sorted(selected_artifacts):
            artifact = selected_artifacts[name]
            text = artifact.render(run.payloads)
            path = atomic_write_text(results_dir / f"{name}.txt", text + "\n")
            print(f"[{name} written to {path}]")

    print(render_manifest(run.manifest))
    return 0


def _run_traced_experiment(name: str, seed: int):
    """Run one named experiment (shared by ``trace`` and ``why``)."""
    if name in ("openfoam", "openfoam-overload"):
        from .experiments import OVERLOAD, TUNING, run_openfoam_experiment

        experiment = OVERLOAD if name == "openfoam-overload" else TUNING
        print(f"running OpenFOAM '{experiment.name}' (seed {seed}) ...")
        return run_openfoam_experiment(experiment, seed=seed)
    from .experiments import (
        adaptive_experiment,
        run_ddmd_experiment,
        tuning_experiment,
    )

    experiment = (
        adaptive_experiment() if name == "ddmd-adaptive" else tuning_experiment()
    )
    print(f"running DDMD '{experiment.name}' (seed {seed}) ...")
    return run_ddmd_experiment(
        experiment, seed=seed, adaptive_analysis=(name == "ddmd-adaptive")
    )


def _cmd_why(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .provenance import (
        build_graph,
        critical_path,
        render_critical_path,
        render_why,
        report_violations,
        resolve_target,
        validate_graph,
        why_chain,
    )
    from .sim import observability

    with observability(telemetry=True, provenance=True):
        result = _run_traced_experiment(args.experiment, args.seed)

    graph = build_graph(result)
    violations = validate_graph(graph)
    if violations:
        report_violations(graph, violations)
        for violation in violations:
            print(f"invalid run graph — {violation.format()}", file=sys.stderr)
        return 1

    target = resolve_target(graph, args.target)
    if target is None:
        tasks = ", ".join(sorted(graph.task_events)[:8])
        print(
            f"why: no event matches {args.target!r}; try 'run', a task uid "
            f"({tasks}, ...), a span id (1-{len(graph.span_events)}), or a "
            f"span label substring",
            file=sys.stderr,
        )
        return 2
    chain = why_chain(graph, target)
    print()
    print(render_why(graph, target, chain, top=args.top))
    print()
    path = critical_path(graph)
    table = render_critical_path(graph, path)
    print(table)
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table + "\n", encoding="utf-8")
        print(f"\ncritical-path table written to {out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .sim import observability
    from .telemetry import (
        chrome_trace,
        component_tracks,
        flame_summary,
        merge_chrome_traces,
        render_span_table,
        run_counters,
        save_chrome_trace,
        top_critical_spans,
        validate_chrome_trace,
    )

    with observability(telemetry=True) as hubs:
        result = _run_traced_experiment(args.experiment, args.seed)

    if not hubs:
        print("no telemetry hubs recorded (nothing to export)")
        return 1
    documents = [
        chrome_trace(
            hub,
            counters=run_counters(result) if index == 0 else None,
            pid=index + 1,
        )
        for index, hub in enumerate(hubs)
    ]
    document = merge_chrome_traces(documents)
    problems = validate_chrome_trace(document)
    if problems:
        for problem in problems[:10]:
            print(f"invalid trace: {problem}")
        return 1
    out = Path(
        args.out
        if args.out is not None
        else Path("traces") / f"{args.experiment}.trace.json"
    )
    path = save_chrome_trace(out, document)

    hub = max(hubs, key=lambda h: len(h.spans))
    counters = hub.counters()
    print(
        f"makespan: {result.makespan:.0f} simulated seconds; "
        f"{counters['spans_started']} spans on "
        f"{len(component_tracks(document))} component tracks "
        f"({counters['traces']} causal traces)"
    )
    print(f"trace written to {path} (load in ui.perfetto.dev)")
    print()
    print(flame_summary(hub))
    print()
    print("top critical-path spans (by self time):")
    print(render_span_table(top_critical_spans(hub, k=args.top)))
    return 0


def _cmd_bottleneck(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import json

    from .analysis.bottleneck import (
        SCENARIOS,
        DetectionContext,
        calibrate,
        detect_all,
        render_findings,
        run_scenario,
    )
    from .analysis.bottleneck.calibrate import DEFAULT_MARGIN

    if args.calibrate:
        report = calibrate(margin=DEFAULT_MARGIN if args.margin is None else args.margin)
        if args.json:
            print(
                json.dumps(
                    {
                        "thresholds": report.thresholds.to_dict(),
                        "observed": report.observed,
                        "samples": report.samples,
                        "margin": report.margin,
                        "seeds": list(report.seeds),
                    },
                    indent=2,
                )
            )
        else:
            print(report.render())
        return 0
    if args.margin is not None:
        parser.error("--margin only makes sense with --calibrate")

    names = (
        list(SCENARIOS) if args.experiment == "battery" else [args.experiment]
    )
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        known = ", ".join(SCENARIOS)
        raise SystemExit(
            f"unknown scenario {unknown[0]!r}; known: {known}, battery"
        )

    mismatches = []
    kinds_seen: set[str] = set()
    report_json = []
    for name in names:
        scenario = SCENARIOS[name]
        result = run_scenario(name, seed=args.seed)
        ctx = DetectionContext.from_result(result)
        findings = detect_all(ctx)
        kinds = sorted({f.kind for f in findings})
        kinds_seen.update(kinds)
        ok = set(kinds) == set(scenario.expect)
        if not ok:
            mismatches.append(name)
        if args.json:
            report_json.append(
                {
                    "scenario": name,
                    "seed": args.seed,
                    "expected": list(scenario.expect),
                    "ok": ok,
                    "findings": [f.to_dict() for f in findings],
                }
            )
            continue
        verdict = "ok" if ok else "MISMATCH"
        expected = "/".join(scenario.expect) or "none"
        print(
            f"== {name} (seed {args.seed}) — {scenario.description}; "
            f"expected: {expected} [{verdict}]"
        )
        print(render_findings(findings))
        print()
    if args.json:
        print(json.dumps(report_json, indent=2))
    elif args.experiment == "battery":
        print(
            f"battery: {len(names)} scenario(s), {len(kinds_seen)} "
            f"distinct finding kind(s), {len(mismatches)} mismatch(es)"
        )
    if mismatches:
        print(
            "detectors disagreed with the planted truth in: "
            + ", ".join(mismatches),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_facility(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import json as json_mod

    from .experiments.facility import (
        FacilitySpec,
        facility_chaos_plan,
        run_facility,
    )
    from .sweep.artifacts import render_facility

    try:
        spec = FacilitySpec(
            pilots=args.pilots,
            shards=args.shards,
            service_nodes=args.service_nodes,
            tasks_per_pilot=args.tasks_per_pilot,
            concurrency=args.concurrency,
            period=args.period,
            admission_rate=args.admission_rate,
            degrade=args.degrade,
        )
    except ValueError as exc:
        parser.error(str(exc))
    plan = facility_chaos_plan(spec) if args.chaos else None
    result = run_facility(spec, seed=args.seed, fault_plan=plan)
    payload = result.payload()
    if args.json:
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_facility(payload))
    # The degradation contract is the scenario's pass condition.
    return 0 if payload["stalled_tasks"] == 0 else 1


def _cmd_lint(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from pathlib import Path

    from .sanitize import simlint

    if args.list_rules:
        width = max(len(rule.name) for rule in simlint.RULES.values())
        for rule in simlint.RULES.values():
            print(f"{rule.id}  {rule.name:<{width}}  {rule.summary}")
        return 0
    for path in args.paths:
        if not Path(path).exists():
            parser.error(f"no such file or directory: {path}")
    return simlint.main(
        args.paths, fmt=args.fmt, show_suppressed=args.show_suppressed
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "openfoam":
        return _cmd_openfoam(args)
    if args.command == "ddmd":
        return _cmd_ddmd(args)
    if args.command == "scaling":
        return _cmd_scaling(args)
    if args.command == "sweep":
        return _cmd_sweep(args, args.parser)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "why":
        return _cmd_why(args)
    if args.command == "bottleneck":
        return _cmd_bottleneck(args, args.parser)
    if args.command == "facility":
        return _cmd_facility(args, args.parser)
    if args.command == "lint":
        return _cmd_lint(args, args.parser)
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
