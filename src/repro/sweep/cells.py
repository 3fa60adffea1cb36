"""Sweep cell families, their result collectors and :func:`run_cell`.

A cell family turns ``(params, seed)`` into a **plain-data payload**:
every value a downstream artifact renderer or bench assertion needs,
reduced to JSON types inside the worker process.  Nothing session- or
generator-shaped crosses the process boundary — that is what makes
cells picklable and their results content-addressable.  :data:`FAMILIES`
maps each family name to its module-level function, and
:func:`run_cell` is what sweep workers execute.

Insertion order of the payload dicts is preserved through the JSON
round trip, and several renderers fold samples in that order (floating
point addition is not associative), so collectors record series in the
exact order the analysis helpers produced them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from ..analysis.timeline import BOOTSTRAP, RUNNING, SCHEDULING, build_timeline
from ..experiments.ablations import (
    run_detection_ablation,
    run_placement_ablation,
    run_rank_tuning_ablation,
)
from ..experiments.ddmd_exps import (
    SCALING_A,
    SCALING_B,
    DDMDExperiment,
    adaptive_experiment,
    pipeline_durations,
    run_ddmd_experiment,
    tuning_experiment,
)
from ..experiments.harness import WorkflowResult
from ..experiments.openfoam_exps import (
    OVERLOAD,
    TUNING,
    OpenFOAMExperiment,
    execution_times_by_ranks,
    execution_times_by_spread,
    run_openfoam_experiment,
)
from ..platform import SUMMIT
from ..soma.analysis import (
    cpu_utilization_series,
    imbalance_ratio,
    rank_region_breakdown,
    task_state_observations,
)
from ..soma.namespaces import HARDWARE, PERFORMANCE, WORKFLOW

__all__ = [
    "FAMILIES",
    "run_cell",
    "jsonable",
    "collect_openfoam",
    "collect_ddmd",
    "openfoam_cell",
    "ddmd_cell",
    "ablation_cell",
    "provenance_cell",
]

_DDMD_STAGES = ("simulation", "training", "selection", "agent")


def jsonable(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return item()
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy array
        return jsonable(tolist())
    raise TypeError(f"cannot make {type(value).__name__} JSON-able")


def _utilization_series(result: WorkflowResult) -> dict[str, list] | None:
    """Per-host [time, cpu, gpu] triples, insertion order preserved."""
    if not result.deployment.enabled:
        return None
    series = cpu_utilization_series(result.deployment.store(HARDWARE))
    return {
        host: [[p.time, p.cpu_utilization, p.gpu_utilization] for p in points]
        for host, points in series.items()
    }


def _timeline_summary(result: WorkflowResult) -> dict:
    """Raw numbers behind the Fig 8 utilization row for one run."""
    timeline = build_timeline(result.session, result.tasks)
    compute_nodes = [n.name for n in result.client.pilot.compute_nodes]
    compute = build_timeline(result.session, result.tasks, nodes=compute_nodes)
    span = result.finished_at
    cores = SUMMIT.node.usable_cores
    return {
        "kinds": sorted(timeline.kinds()),
        "span": span,
        "total_core_seconds": span * cores * len(compute_nodes),
        "running": compute.busy_core_seconds(RUNNING),
        "scheduling": compute.busy_core_seconds(SCHEDULING),
        "bootstrap": compute.busy_core_seconds(BOOTSTRAP),
    }


def collect_openfoam(
    result: WorkflowResult, experiment: OpenFOAMExperiment
) -> dict:
    """Reduce an OpenFOAM run to the data Figs 4-8 / Table 1 consume."""
    spreads = {
        str(ranks): {
            str(n): values
            for n, values in execution_times_by_spread(result, ranks).items()
        }
        for ranks in experiment.rank_configs
    }
    tau = None
    if result.deployment.enabled and result.payload["by_ranks"].get(20):
        task = result.payload["by_ranks"][20][0]
        store = result.deployment.store(PERFORMANCE)
        breakdown = rank_region_breakdown(store, task.uid)
        tau = {
            "task_uid": task.uid,
            "breakdown": {
                str(rank): dict(regions)
                for rank, regions in breakdown.items()
            },
            "imbalance": imbalance_ratio(breakdown),
        }
    task_starts: list[list] = []
    if result.deployment.enabled:
        markers = task_state_observations(
            result.deployment.store(WORKFLOW), event="AGENT_EXECUTING"
        )
        app_uids = {t.uid for t in result.application_tasks}
        task_starts = [[t, uid] for t, uid in markers if uid in app_uids]
    return jsonable(
        {
            "experiment": experiment.name,
            "seed_tasks_expected": experiment.num_tasks,
            "makespan": result.makespan,
            "finished_at": result.finished_at,
            "num_application_tasks": len(result.application_tasks),
            "exec_times_by_ranks": {
                str(r): v
                for r, v in execution_times_by_ranks(result).items()
            },
            "exec_times_by_spread": spreads,
            "tau": tau,
            "utilization_series": _utilization_series(result),
            "task_starts": task_starts,
            "compute_hosts": [
                n.name for n in result.client.pilot.compute_nodes
            ],
            "timeline": _timeline_summary(result),
        }
    )


def collect_ddmd(result: WorkflowResult, experiment: DDMDExperiment) -> dict:
    """Reduce a DDMD run to the data Figs 9-11 / Table 2 consume."""
    manager = result.payload["manager"]
    stages = result.session.tracer.select(category="entk.stage")
    phase_ends = [
        rec.time for i, rec in enumerate(stages) if (i + 1) % 4 == 0
    ]
    pipeline0 = result.payload["pipelines"][0]
    return jsonable(
        {
            "experiment": experiment.name,
            "makespan": result.makespan,
            "pipeline_durations": pipeline_durations(result),
            "stage_durations": {
                stage: manager.stage_durations(stage)
                for stage in _DDMD_STAGES
            },
            "utilization_series": _utilization_series(result),
            "phase_ends": phase_ends,
            "analyses": result.payload["analyses"],
            "pipeline0_stages": len(pipeline0.stages),
            "pipeline0_succeeded": pipeline0.succeeded,
        }
    )


def openfoam_cell(params: dict, seed: int) -> dict:
    """``{"experiment": "tuning"|"overload", "overrides": {...}}``."""
    base = TUNING if params.get("experiment", "tuning") == "tuning" else OVERLOAD
    overrides = dict(params.get("overrides") or {})
    if "rank_configs" in overrides:
        overrides["rank_configs"] = tuple(overrides["rank_configs"])
    experiment = replace(base, **overrides) if overrides else base
    result = run_openfoam_experiment(experiment, seed=seed)
    return collect_openfoam(result, experiment)


def _ddmd_experiment(params: dict) -> DDMDExperiment:
    preset = params.get("preset", "tuning")
    if preset == "tuning":
        experiment = tuning_experiment()
    elif preset == "adaptive":
        experiment = adaptive_experiment()
    elif preset == "scaling_a":
        experiment = SCALING_A(params["soma_nodes"], params["mode"])
    elif preset == "scaling_b":
        experiment = SCALING_B(
            params["pipelines"],
            params["mode"],
            frequent=bool(params.get("frequent", False)),
        )
    else:
        raise KeyError(f"unknown ddmd preset {preset!r}")
    overrides = dict(params.get("overrides") or {})
    param_updates = overrides.pop("params", None)
    if param_updates:
        overrides["params"] = experiment.params.with_updates(**param_updates)
    if overrides:
        experiment = experiment.with_updates(**overrides)
    return experiment


def ddmd_cell(params: dict, seed: int) -> dict:
    """``{"preset": ..., "overrides": {...}, "adaptive_analysis": bool}``."""
    experiment = _ddmd_experiment(params)
    result = run_ddmd_experiment(
        experiment,
        seed=seed,
        adaptive_analysis=bool(params.get("adaptive_analysis", False)),
    )
    return collect_ddmd(result, experiment)


def provenance_cell(params: dict, seed: int) -> dict:
    """``{"preset": ..., "overrides": {...}, "adaptive_analysis": bool}``.

    Runs one DDMD configuration with provenance capture on, builds the
    run graph, validates its invariants, and reduces the critical-path
    attribution to plain data.  The run itself is byte-identical to the
    plain ``ddmd`` cell (the zero-perturbation battery pins that), so
    this cell only pays the graph construction on top.
    """
    from ..provenance import (
        attribution_total,
        build_graph,
        critical_path,
        edge_attribution,
        validate_graph,
    )
    from ..sim import observability

    experiment = _ddmd_experiment(params)
    with observability(telemetry=True, provenance=True):
        result = run_ddmd_experiment(
            experiment,
            seed=seed,
            adaptive_analysis=bool(params.get("adaptive_analysis", False)),
        )
    graph = build_graph(result)
    violations = validate_graph(graph)
    path = critical_path(graph)
    return jsonable(
        {
            "experiment": experiment.name,
            "makespan": result.makespan,
            "finished_at": result.finished_at,
            "events": len(graph.events),
            "edges": len(graph.edges),
            "event_counts": graph.event_counts(),
            "edge_counts": graph.edge_counts(),
            "tasks": len(graph.task_events),
            "violations": [v.format() for v in violations],
            "critical_path_edges": len(path),
            "attribution": edge_attribution(path),
            "attribution_total": attribution_total(path),
            "capture": result.session.telemetry.provenance.counters(),
        }
    )


def facility_cell(params: dict, seed: int) -> dict:
    """``{"spec": {FacilitySpec overrides}, "chaos": bool}``.

    Runs the shared-facility scenario (hundreds of tenants against one
    sharded SOMA deployment); ``chaos`` arms the canonical shard-outage
    + tenant-flood plan.
    """
    from ..experiments.facility import (
        FacilitySpec,
        facility_chaos_plan,
        run_facility,
    )

    overrides = dict(params.get("spec") or {})
    for key in ("workload_mix", "namespaces"):
        if key in overrides:
            overrides[key] = tuple(overrides[key])
    spec = FacilitySpec(**overrides)
    plan = facility_chaos_plan(spec) if params.get("chaos") else None
    result = run_facility(spec, seed=seed, fault_plan=plan)
    return jsonable(result.payload())


def ablation_cell(params: dict, seed: int) -> dict:
    """``{"which": "rank_tuning"|"placement"|"detection", "adaptive": bool}``."""
    which = params["which"]
    adaptive = bool(params["adaptive"])
    if which == "rank_tuning":
        makespan, choice = run_rank_tuning_ablation(adaptive, seed=seed)
        return jsonable({"makespan": makespan, "choice": choice})
    if which == "placement":
        makespan = run_placement_ablation(adaptive, seed=seed)
        return jsonable({"makespan": makespan})
    if which == "detection":
        makespan, counts = run_detection_ablation(adaptive, seed=seed)
        return jsonable({"makespan": makespan, "train_counts": counts})
    raise KeyError(f"unknown ablation {which!r}")


#: family name -> function(params: dict, seed: int) -> JSON-able payload.
FAMILIES: dict[str, Callable[[dict, int], dict]] = {
    "openfoam": openfoam_cell,
    "ddmd": ddmd_cell,
    "provenance": provenance_cell,
    "facility": facility_cell,
    "ablation": ablation_cell,
}


def run_cell(family: str, params: dict, seed: int) -> dict:
    """Run one self-contained cell and return its plain-data payload.

    A top-level callable taking only plain arguments, so ``(family,
    params, seed)`` is the entire pickled state of a cell.
    """
    try:
        fn = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise KeyError(
            f"unknown cell family {family!r}; known: {known}"
        ) from None
    return fn(dict(params), int(seed))
