#!/usr/bin/env python3
"""The OpenFOAM (ExaAM / AdditiveFOAM) workflow under SOMA monitoring.

Reproduces the paper's Sec 3.1 tuning run: one instance each of the
20 / 41 / 82 / 164-rank task configurations on 4 compute nodes (+1
agent/SOMA node), monitored by the proc, rp and TAU clients — then
prints the observability the paper derives from it:

* the strong-scaling picture (Fig 4, tuning subset),
* a per-rank TAU/MPI breakdown for one task (Fig 5),
* per-node CPU-utilization traces with task-start markers (Fig 7),
* the RP resource-utilization timeline summary (Fig 8, bottom).

Run:  python examples/openfoam_workflow.py
"""

from repro.analysis import RUNNING, SCHEDULING, build_timeline, render_table, sparkline
from repro.experiments import (
    TUNING,
    execution_times_by_ranks,
    run_openfoam_experiment,
)
from repro.soma import (
    HARDWARE,
    PERFORMANCE,
    WORKFLOW,
    cpu_utilization_series,
    load_imbalance,
    rank_region_breakdown,
    task_state_observations,
)


def main() -> None:
    print("running the OpenFOAM tuning workflow (Table 1, 'Tuning')...")
    result = run_openfoam_experiment(TUNING, seed=11)
    print(f"makespan: {result.makespan:.0f} simulated seconds\n")

    # -- Fig 4 (tuning subset): execution time per configuration -----
    rows = []
    for ranks, times in sorted(execution_times_by_ranks(result).items()):
        rows.append([ranks, f"{times[0]:.1f}"])
    print(render_table(["MPI ranks", "exec time (s)"], rows,
                       title="strong scaling (one instance each)"))

    # -- Fig 5: per-rank MPI breakdown of the 20-rank task -----------
    task20 = result.payload["by_ranks"][20][0]
    store = result.deployment.store(PERFORMANCE)
    breakdown = rank_region_breakdown(store, task20.uid)
    print(f"\nTAU profile of {task20.uid} (20 ranks), seconds per region:")
    rows = []
    for rank in sorted(breakdown)[:8]:
        regions = breakdown[rank]
        rows.append(
            [
                rank,
                f"{regions['solveMomentum'] + regions['solveEnergy']:.1f}",
                f"{regions['MPI_Recv']:.1f}",
                f"{regions['MPI_Waitall']:.1f}",
                f"{regions['MPI_Allreduce']:.1f}",
            ]
        )
    print(render_table(
        ["rank", "solve", "MPI_Recv", "MPI_Waitall", "MPI_Allreduce"], rows
    ))
    print(f"load imbalance (max/mean): {load_imbalance(store, task20.uid):.3f}")

    # -- Fig 7: CPU utilization per node + task-start markers --------
    print("\nper-node CPU utilization (30 s samples):")
    series = cpu_utilization_series(result.deployment.store(HARDWARE))
    for host, points in sorted(series.items()):
        values = [p.cpu_utilization for p in points]
        print(f"  {host}: {sparkline(values, lo=0.0, hi=1.0)}")
    markers = task_state_observations(
        result.deployment.store(WORKFLOW), event="AGENT_EXECUTING"
    )
    app_uids = {t.uid for t in result.application_tasks}
    starts = [(t, uid) for t, uid in markers if uid in app_uids]
    print("task starts observed by the RP monitor:",
          ", ".join(f"{uid}@{t:.0f}s" for t, uid in starts))

    # -- Fig 8 (bottom): resource utilization accounting -------------
    timeline = build_timeline(result.session, result.tasks)
    total = result.session.cluster.total_cores * result.finished_at
    running = timeline.busy_core_seconds(RUNNING)
    scheduling = timeline.busy_core_seconds(SCHEDULING)
    print(
        f"\nRP resource view: {running:.0f} core-s running (green), "
        f"{scheduling:.0f} core-s scheduling (purple), "
        f"{100 * running / total:.1f}% of the allocation used"
    )


if __name__ == "__main__":
    main()
