"""The default sweep matrix and per-artifact renderers.

Every text artifact under ``benchmarks/results/`` maps to an
:class:`Artifact`: the cells whose payloads it needs, and a renderer
that merges those payloads into the exact text the corresponding bench
writes.  The benches call the same renderers on the same collected
payloads, so a sweep regeneration is byte-identical to a bench run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..analysis.overhead import compare_runtimes
from ..analysis.report import (
    fmt,
    fmt_percent,
    render_boxes,
    render_series,
    render_table,
)
from ..experiments.ddmd_exps import (
    DDMD_ADAPTIVE_TRAIN_COUNTS,
    DDMD_TUNING_PHASES,
    SCALING_A,
    SCALING_B,
    adaptive_experiment,
    tuning_experiment,
)
from ..experiments.openfoam_exps import OVERLOAD, TUNING
from .spec import CellSpec, SweepSpec

__all__ = [
    "Artifact",
    "default_matrix",
    "fig6_trend",
    "fig11_overhead_rows",
    "render_fig4",
    "render_fig5",
    "render_fig6",
    "render_fig7",
    "render_fig8",
    "render_fig9",
    "render_fig10",
    "render_fig11",
    "render_table1",
    "render_table2",
    "render_adaptive",
    "render_ablation_frequency",
    "render_ablation_rank_tuning",
    "render_ablation_placement",
    "render_ablation_detection",
    "render_facility",
    "render_provenance",
]

#: Fig 11 configurations, in presentation order.
SCALING_B_CONFIGS = (
    ("none", False),
    ("shared", False),
    ("exclusive", False),
    ("shared", True),
    ("exclusive", True),
)

FREQ_ABLATION_PERIODS = (60.0, 20.0, 5.0)
PLACEMENT_SEEDS = (9, 17, 23)


@dataclass(frozen=True)
class Artifact:
    """One regenerable ``benchmarks/results/<name>.txt`` file."""

    name: str
    cells: tuple[str, ...]
    render: Callable[[dict[str, dict]], str]


# -- single-run renderers (OpenFOAM family) ----------------------------


def render_fig4(payload: dict) -> str:
    times = {int(r): v for r, v in payload["exec_times_by_ranks"].items()}
    return render_boxes(
        {f"{ranks} ranks": values for ranks, values in sorted(times.items())},
        title="Fig 4: OpenFOAM task execution time vs MPI ranks "
        "(20 instances each, overloaded run)",
    )


def render_fig5(payload: dict) -> str:
    tau = payload["tau"]
    breakdown = {int(r): regions for r, regions in tau["breakdown"].items()}
    rows = []
    for rank in sorted(breakdown):
        regions = breakdown[rank]
        compute = sum(
            v for k, v in regions.items() if not k.startswith("MPI_")
        )
        rows.append(
            [
                rank,
                f"{compute:.1f}",
                f"{regions['MPI_Recv']:.1f}",
                f"{regions['MPI_Waitall']:.1f}",
                f"{regions['MPI_Allreduce']:.1f}",
                f"{regions['MPI_Isend']:.1f}",
            ]
        )
    return render_table(
        ["rank", "compute", "MPI_Recv", "MPI_Waitall", "MPI_Allreduce",
         "MPI_Isend"],
        rows,
        title=f"Fig 5: TAU profile of {tau['task_uid']} "
        "(seconds per region per rank)",
    )


def fig6_trend(groups: dict[int, list[float]]) -> float:
    """Correlation between node count and execution time."""
    xs, ys = [], []
    for nodes, values in groups.items():
        xs.extend([nodes] * len(values))
        ys.extend(values)
    if len(set(xs)) < 2:
        return 0.0
    return float(np.corrcoef(xs, ys)[0, 1])


def fig6_spreads(payload: dict) -> dict[int, dict[int, list[float]]]:
    return {
        ranks: {
            int(n): values
            for n, values in payload["exec_times_by_spread"][str(ranks)].items()
        }
        for ranks in (20, 41)
    }


def render_fig6(payload: dict) -> str:
    sections = []
    for ranks, groups in fig6_spreads(payload).items():
        sections.append(
            render_boxes(
                {f"{n} node(s)": v for n, v in groups.items()},
                title=f"Fig 6: {ranks}-rank tasks by node spread",
            )
        )
        sections.append(
            f"trend (corr nodes vs time): {fig6_trend(groups):+.2f}"
        )
    return "\n\n".join(sections)


def render_fig7(payload: dict) -> str:
    lines = ["Fig 7: CPU utilization per compute node (30 s samples)"]
    for host, points in sorted(payload["utilization_series"].items()):
        lines.append(
            render_series(
                f"  {host}",
                [p[0] for p in points],
                [p[1] for p in points],
            )
        )
    lines.append(
        "task starts observed by the RP monitor (orange dots): "
        + ", ".join(f"{uid}@{t:.0f}s" for t, uid in payload["task_starts"])
    )
    return "\n".join(lines)


def fig8_row(payload: dict, label: str) -> list[str]:
    timeline = payload["timeline"]
    total = timeline["total_core_seconds"]
    running = timeline["running"]
    scheduling = timeline["scheduling"]
    boot = timeline["bootstrap"]
    idle = total - running - scheduling - boot
    return [
        label,
        f"{timeline['span']:.0f}",
        f"{100 * running / total:.1f}%",
        f"{100 * scheduling / total:.2f}%",
        f"{100 * boot / total:.1f}%",
        f"{100 * idle / total:.1f}%",
    ]


def render_fig8(overload: dict, tuning: dict) -> str:
    return render_table(
        ["run", "makespan (s)", "running (green)", "scheduling (purple)",
         "bootstrap (blue)", "idle (white)"],
        [fig8_row(overload, "overload (top)"), fig8_row(tuning, "tuning (bottom)")],
        title="Fig 8: RP resource utilization of the compute nodes",
    )


def render_table1() -> str:
    rows = []
    for exp in (TUNING, OVERLOAD):
        rows.append(
            [
                exp.name,
                exp.num_tasks,
                f"{exp.compute_nodes} (+{exp.agent_nodes})",
                ",".join(str(r) for r in exp.rank_configs),
                ", ".join((*exp.monitors, "tau")),
                exp.soma_ranks_per_namespace,
            ]
        )
    return render_table(
        [
            "Experiment",
            "Number of Tasks",
            "Number of Nodes",
            "MPI Ranks",
            "Monitors",
            "SOMA Ranks/Namespace",
        ],
        rows,
        title="Table 1: OpenFOAM Experiment Summary",
    )


# -- single-run renderers (DDMD family) --------------------------------


def fig9_phase_rows(payload: dict) -> list[list]:
    series = payload["utilization_series"]
    rows = []
    boundaries = [0.0] + list(payload["phase_ends"])
    for phase, (lo, hi) in enumerate(zip(boundaries, boundaries[1:])):
        samples = [
            p[1]
            for points in series.values()
            for p in points
            if lo < p[0] <= hi
        ]
        gpu_samples = [
            p[2]
            for points in series.values()
            for p in points
            if lo < p[0] <= hi
        ]
        cfg = DDMD_TUNING_PHASES[phase]
        rows.append(
            [
                phase,
                cfg["cores_per_sim_task"],
                cfg["cores_per_train_task"],
                f"{np.mean(samples):.3f}" if samples else "-",
                f"{np.mean(gpu_samples):.3f}" if gpu_samples else "-",
            ]
        )
    return rows


def render_fig9(payload: dict) -> str:
    lines = ["Fig 9: DDMD tuning, CPU utilization per app node"]
    for host, points in sorted(payload["utilization_series"].items()):
        lines.append(
            render_series(
                f"  {host}",
                [p[0] for p in points],
                [p[1] for p in points],
            )
        )
    lines.append(
        render_table(
            ["phase", "cores/sim", "cores/train", "mean CPU util",
             "mean GPU util"],
            fig9_phase_rows(payload),
        )
    )
    return "\n".join(lines)


def render_table2() -> str:
    tuning = tuning_experiment()
    adaptive = adaptive_experiment()
    rows = [
        [
            "Tuning",
            tuning.phases,
            tuning.pipelines,
            tuning.app_nodes,
            tuning.soma_nodes,
            "1,3,7",
            "1",
            "1,3,7",
            tuning.soma_config().total_ranks,
            f"{tuning.monitoring_frequency:.0f}",
        ],
        [
            "Adaptive",
            adaptive.phases,
            adaptive.pipelines,
            adaptive.app_nodes,
            adaptive.soma_nodes,
            adaptive.params.cores_per_sim_task,
            "1,2,4,6",
            adaptive.params.cores_per_train_task,
            adaptive.soma_config().total_ranks,
            f"{adaptive.monitoring_frequency:.0f}",
        ],
    ]
    for soma_nodes in (1, 2, 4):
        exp = SCALING_A(soma_nodes, "exclusive")
        rows.append(
            [
                "Scaling A",
                exp.phases,
                exp.pipelines,
                exp.app_nodes,
                exp.soma_nodes,
                exp.params.cores_per_sim_task,
                exp.params.num_train_tasks,
                exp.params.cores_per_train_task,
                exp.soma_config().total_ranks,
                f"{exp.monitoring_frequency:.0f}",
            ]
        )
    for pipelines in (64, 128, 256, 512):
        exp = SCALING_B(pipelines, "exclusive")
        rows.append(
            [
                "Scaling B",
                exp.phases,
                exp.pipelines,
                exp.app_nodes,
                exp.soma_nodes,
                exp.params.cores_per_sim_task,
                exp.params.num_train_tasks,
                exp.params.cores_per_train_task,
                exp.soma_config().total_ranks,
                "60,10",
            ]
        )
    return render_table(
        [
            "Experiment",
            "Phases",
            "Pipelines",
            "App Nodes",
            "SOMA Nodes",
            "Cores/Sim",
            "Train Tasks",
            "Cores/Train",
            "SOMA Ranks",
            "Freq (s)",
        ],
        rows,
        title="Table 2: DeepDriveMD Mini-app Experiment Summary",
    )


# -- multi-run renderers -----------------------------------------------


def fig10_durations(payloads: dict[str, dict]) -> dict[str, list[float]]:
    out = {}
    for soma_nodes in (1, 2, 4):
        for mode in ("shared", "exclusive"):
            key = f"scaling-a-{mode}-{soma_nodes}n"
            out[f"{mode}-{16 * soma_nodes}ranks"] = payloads[key][
                "pipeline_durations"
            ]
    return out


def render_fig10(payloads: dict[str, dict]) -> str:
    return render_boxes(
        fig10_durations(payloads),
        title="Fig 10: Scaling A pipeline runtimes (64 pipelines)",
    )


def scaling_b_key(pipelines: int, mode: str, frequent: bool) -> str:
    label = ("frequent-" if frequent else "") + mode
    return f"scaling-b-{label}-{pipelines}p"


def fig11_data(
    payloads: dict[str, dict], scales: tuple[int, ...]
) -> dict[int, dict[str, list[float]]]:
    data: dict[int, dict[str, list[float]]] = {}
    for pipelines in scales:
        per_config = {}
        for mode, frequent in SCALING_B_CONFIGS:
            label = ("frequent-" if frequent else "") + mode
            per_config[label] = payloads[
                scaling_b_key(pipelines, mode, frequent)
            ]["pipeline_durations"]
        data[pipelines] = per_config
    return data


def fig11_overhead_rows(
    data: dict[int, dict[str, list[float]]]
) -> list[list]:
    overhead_rows = []
    for pipelines, per_config in data.items():
        baseline = per_config["none"]
        monitored = {k: v for k, v in per_config.items() if k != "none"}
        for result in compare_runtimes(baseline, monitored):
            overhead_rows.append(
                [
                    pipelines,
                    result.config,
                    fmt_percent(result.overhead_percent),
                    fmt(result.config_mean, ".1f"),
                    fmt(result.baseline_mean, ".1f"),
                ]
            )
    return overhead_rows


def render_fig11(payloads: dict[str, dict], scales: tuple[int, ...]) -> str:
    data = fig11_data(payloads, scales)
    sections = []
    for pipelines, per_config in data.items():
        sections.append(
            render_boxes(
                per_config,
                title=f"Fig 11: Scaling B, {pipelines} application nodes",
            )
        )
    sections.append(
        render_table(
            ["app nodes", "config", "overhead", "mean (s)", "baseline (s)"],
            fig11_overhead_rows(data),
            title="overhead vs baseline (paper: frequent-exclusive "
            "+1.4/+3.4/+3.2/+4.6% at 64/128/256/512; shared "
            "-6.5/-3.8/-1.1/+1.8%)",
        )
    )
    return "\n\n".join(sections)


def render_adaptive(payload: dict) -> str:
    train_times = payload["stage_durations"]["training"]
    analyses = payload["analyses"]
    rows = []
    for phase, count in enumerate(DDMD_ADAPTIVE_TRAIN_COUNTS):
        headroom = analyses[phase]["headroom"]
        rows.append(
            [
                phase,
                count,
                f"{train_times[phase]:.1f}",
                f"{np.mean([h['cpu'] for h in headroom.values()]):.2f}"
                if headroom
                else "-",
            ]
        )
    return render_table(
        ["phase", "train tasks", "train stage (s)", "CPU headroom"],
        rows,
        title="Adaptive DDMD: a-priori train counts + online SOMA "
        "analysis between phases",
    )


def render_ablation_frequency(payloads: dict[str, dict]) -> str:
    means = {
        freq: float(
            np.mean(
                payloads[f"freq-ablation-{freq:.0f}s"]["pipeline_durations"]
            )
        )
        for freq in FREQ_ABLATION_PERIODS
    }
    rows = [[f"{f:.0f}", f"{m:.1f}"] for f, m in means.items()]
    return render_table(
        ["monitoring period (s)", "mean pipeline runtime (s)"],
        rows,
        title="Ablation: cost of monitoring frequency "
        "(16 pipelines, exclusive)",
    )


def render_ablation_rank_tuning(payloads: dict[str, dict]) -> str:
    adaptive = payloads["ablation-rank-adaptive"]
    static = payloads["ablation-rank-static"]
    gain = (
        (static["makespan"] - adaptive["makespan"]) / static["makespan"] * 100.0
    )
    return render_table(
        ["strategy", "makespan (s)"],
        [
            [
                f"adaptive ({adaptive['choice']} ranks)",
                f"{adaptive['makespan']:.1f}",
            ],
            ["static (mixed)", f"{static['makespan']:.1f}"],
            ["improvement", f"{gain:.1f}%"],
        ],
        title="Ablation: SOMA-informed rank tuning (Sec 4.1 loop)",
    )


def render_ablation_placement(payloads: dict[str, dict]) -> str:
    rows = []
    for seed in PLACEMENT_SEEDS:
        on = payloads[f"ablation-place-on-s{seed}"]["makespan"]
        off = payloads[f"ablation-place-off-s{seed}"]["makespan"]
        gain = (off - on) / off * 100.0
        rows.append([seed, f"{on:.1f}", f"{off:.1f}", f"{gain:+.1f}%"])
    return render_table(
        ["seed", "utilization-aware (s)", "rotating first-fit (s)", "gain"],
        rows,
        title="Ablation: utilization-aware placement (Sec 4.2 "
        "suggestion) — high variance, not a uniform win",
    )


def render_ablation_detection(payloads: dict[str, dict]) -> str:
    driven = payloads["ablation-detection-adaptive"]
    static = payloads["ablation-detection-static"]
    gain = (
        (static["makespan"] - driven["makespan"]) / static["makespan"] * 100.0
    )

    def counts(payload: dict) -> str:
        return "/".join(str(c) for c in payload["train_counts"])

    return render_table(
        ["strategy", "train tasks per phase", "makespan (s)"],
        [
            ["detection-driven", counts(driven), f"{driven['makespan']:.1f}"],
            ["static (a priori)", counts(static), f"{static['makespan']:.1f}"],
            ["improvement", "", f"{gain:.1f}%"],
        ],
        title="Ablation: bottleneck-detection-driven training "
        "parallelism vs the a-priori schedule",
    )


def render_provenance(payload: dict) -> str:
    """The run-graph manifest: invariants + critical-path attribution."""
    header = (
        f"provenance graph for DDMD '{payload['experiment']}': "
        f"{payload['events']} events, {payload['edges']} edges, "
        f"{payload['tasks']} tasks"
    )
    status = (
        "invariants: ok"
        if not payload["violations"]
        else "invariants VIOLATED: " + "; ".join(payload["violations"])
    )
    total = payload["attribution_total"]
    rows = [
        [kind, f"{seconds:.2f}", f"{100.0 * seconds / total:.1f}%" if total else "0.0%"]
        for kind, seconds in payload["attribution"].items()
    ]
    table = render_table(
        ["edge kind", "seconds", "share"],
        rows,
        title=(
            f"critical path: {payload['critical_path_edges']} edge(s), "
            f"{total:.2f}s attributed of {payload['finished_at']:.2f}s"
        ),
    )
    return "\n".join([header, status, "", table])


def render_facility(payload: dict) -> str:
    """The facility manifest: degradation contract + shard balance."""
    spec_line = (
        f"{payload['pilots']} pilots x {payload['tasks_per_pilot']} tasks "
        f"over {payload['shards']} shards (seed {payload['seed']})"
    )
    rows = [
        ["task samples generated", str(payload["samples_generated"])],
        ["task samples published", str(payload["samples_published"])],
        ["stalled tasks", str(payload["stalled_tasks"])],
        ["publishes ok / failed", (
            f"{payload['publishes_ok']} / {payload['publishes_failed']}"
        )],
        ["client drops", str(payload["client_drops"])],
        ["observability gaps", str(payload["gaps"])],
        ["gap seconds", f"{payload['gap_seconds']:.1f}"],
        ["faults applied", str(payload["faults_applied"])],
        ["makespan (s)", f"{payload['makespan']:.1f}"],
    ]
    shard_rows = [
        [name, str(records)]
        for name, records in sorted(payload["store_records"].items())
    ]
    return (
        render_table(["metric", "value"], rows, title=f"Facility: {spec_line}")
        + "\n"
        + render_table(
            ["shard store", "records"],
            shard_rows,
            title="Per-shard store occupancy (consistent-hash balance)",
        )
    )


# -- the default matrix ------------------------------------------------


def default_matrix() -> tuple[SweepSpec, dict[str, Artifact]]:
    """Every paper artifact's cells + renderers, one declarative matrix.

    ``REPRO_FULL_SCALE=1`` adds the 256- and 512-pipeline Scaling-B
    columns (minutes of simulation), exactly like the benches.
    """
    full_scale = os.environ.get("REPRO_FULL_SCALE", "0") == "1"
    scales = (64, 128, 256, 512) if full_scale else (64, 128)

    cells: list[CellSpec] = [
        CellSpec(
            key="openfoam-tuning",
            family="openfoam",
            seed=11,
            params={"experiment": "tuning"},
        ),
        CellSpec(
            key="openfoam-overload",
            family="openfoam",
            seed=21,
            params={"experiment": "overload"},
        ),
        CellSpec(
            key="ddmd-tuning",
            family="ddmd",
            seed=7,
            params={"preset": "tuning"},
        ),
        CellSpec(
            key="ddmd-adaptive",
            family="ddmd",
            seed=13,
            params={"preset": "adaptive", "adaptive_analysis": True},
        ),
    ]
    for soma_nodes in (1, 2, 4):
        for mode in ("shared", "exclusive"):
            cells.append(
                CellSpec(
                    key=f"scaling-a-{mode}-{soma_nodes}n",
                    family="ddmd",
                    seed=5,
                    params={
                        "preset": "scaling_a",
                        "soma_nodes": soma_nodes,
                        "mode": mode,
                    },
                )
            )
    for pipelines in scales:
        for mode, frequent in SCALING_B_CONFIGS:
            cells.append(
                CellSpec(
                    key=scaling_b_key(pipelines, mode, frequent),
                    family="ddmd",
                    seed=5,
                    params={
                        "preset": "scaling_b",
                        "pipelines": pipelines,
                        "mode": mode,
                        "frequent": frequent,
                    },
                )
            )
    for freq in FREQ_ABLATION_PERIODS:
        cells.append(
            CellSpec(
                key=f"freq-ablation-{freq:.0f}s",
                family="ddmd",
                seed=3,
                params={
                    "preset": "scaling_b",
                    "pipelines": 16,
                    "mode": "exclusive",
                    "overrides": {
                        "soma_nodes": 1,
                        "soma_ranks_per_namespace": 8,
                        "monitoring_frequency": freq,
                        "params": {"noise_sigma": 0.02},
                    },
                },
            )
        )
    for label, adaptive in (("adaptive", True), ("static", False)):
        cells.append(
            CellSpec(
                key=f"ablation-rank-{label}",
                family="ablation",
                seed=11,
                params={"which": "rank_tuning", "adaptive": adaptive},
            )
        )
    for seed in PLACEMENT_SEEDS:
        for label, adaptive in (("on", True), ("off", False)):
            cells.append(
                CellSpec(
                    key=f"ablation-place-{label}-s{seed}",
                    family="ablation",
                    seed=seed,
                    params={"which": "placement", "adaptive": adaptive},
                )
            )
    for label, adaptive in (("adaptive", True), ("static", False)):
        cells.append(
            CellSpec(
                key=f"ablation-detection-{label}",
                family="ablation",
                seed=11,
                params={"which": "detection", "adaptive": adaptive},
            )
        )
    cells.append(
        CellSpec(
            key="provenance-ddmd",
            family="provenance",
            seed=7,
            params={"preset": "adaptive", "adaptive_analysis": True},
        )
    )
    cells.append(
        CellSpec(
            key="facility-smoke",
            family="facility",
            seed=3,
            params={
                "spec": {
                    "pilots": 24,
                    "shards": 2,
                    "service_nodes": 2,
                    "tasks_per_pilot": 60,
                    "concurrency": 4,
                    "admission_rate": 0.5,
                },
                "chaos": True,
            },
        )
    )

    scaling_b_cells = tuple(
        scaling_b_key(p, mode, frequent)
        for p in scales
        for mode, frequent in SCALING_B_CONFIGS
    )
    artifacts = {
        artifact.name: artifact
        for artifact in (
            Artifact(
                "fig4",
                ("openfoam-overload",),
                lambda p: render_fig4(p["openfoam-overload"]),
            ),
            Artifact(
                "fig5",
                ("openfoam-tuning",),
                lambda p: render_fig5(p["openfoam-tuning"]),
            ),
            Artifact(
                "fig6",
                ("openfoam-overload",),
                lambda p: render_fig6(p["openfoam-overload"]),
            ),
            Artifact(
                "fig7",
                ("openfoam-tuning",),
                lambda p: render_fig7(p["openfoam-tuning"]),
            ),
            Artifact(
                "fig8",
                ("openfoam-overload", "openfoam-tuning"),
                lambda p: render_fig8(
                    p["openfoam-overload"], p["openfoam-tuning"]
                ),
            ),
            Artifact(
                "table1", ("openfoam-tuning",), lambda p: render_table1()
            ),
            Artifact(
                "fig9",
                ("ddmd-tuning",),
                lambda p: render_fig9(p["ddmd-tuning"]),
            ),
            Artifact(
                "table2", ("ddmd-tuning",), lambda p: render_table2()
            ),
            Artifact(
                "fig10",
                tuple(
                    f"scaling-a-{mode}-{n}n"
                    for n in (1, 2, 4)
                    for mode in ("shared", "exclusive")
                ),
                render_fig10,
            ),
            Artifact(
                "fig11",
                scaling_b_cells,
                lambda p, scales=scales: render_fig11(p, scales),
            ),
            Artifact(
                "adaptive",
                ("ddmd-adaptive",),
                lambda p: render_adaptive(p["ddmd-adaptive"]),
            ),
            Artifact(
                "ablation_frequency",
                tuple(
                    f"freq-ablation-{f:.0f}s" for f in FREQ_ABLATION_PERIODS
                ),
                render_ablation_frequency,
            ),
            Artifact(
                "ablation_rank_tuning",
                ("ablation-rank-adaptive", "ablation-rank-static"),
                render_ablation_rank_tuning,
            ),
            Artifact(
                "ablation_placement",
                tuple(
                    f"ablation-place-{label}-s{seed}"
                    for seed in PLACEMENT_SEEDS
                    for label in ("on", "off")
                ),
                render_ablation_placement,
            ),
            Artifact(
                "ablation_detection",
                ("ablation-detection-adaptive", "ablation-detection-static"),
                render_ablation_detection,
            ),
            Artifact(
                "facility",
                ("facility-smoke",),
                lambda p: render_facility(p["facility-smoke"]),
            ),
            Artifact(
                "provenance",
                ("provenance-ddmd",),
                lambda p: render_provenance(p["provenance-ddmd"]),
            ),
        )
    }
    return SweepSpec(cells), artifacts
