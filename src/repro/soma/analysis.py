"""Online/offline analysis over SOMA's namespace stores.

These functions implement the observations the paper derives from the
collected data: per-node CPU-utilization traces with task-start markers
(Fig 7), per-rank MPI breakdowns and load imbalance (Fig 5), workflow
state statistics, throughput, and the free-resource estimate used
between phases in the adaptive DDMD experiment (Sec 3.2).

They operate on :class:`~repro.soma.storage.NamespaceStore` objects and
can be invoked either offline (after a run) or online via a SOMA
client's ``query`` RPC.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..conduit import Node
from .storage import NamespaceStore

__all__ = [
    "UtilizationPoint",
    "cpu_utilization_series",
    "task_state_observations",
    "workflow_summary_series",
    "task_throughput",
    "rank_region_breakdown",
    "task_breakdowns",
    "imbalance_ratio",
    "load_imbalance",
    "free_resource_estimate",
]


@dataclass(frozen=True, slots=True)
class UtilizationPoint:
    """One hardware-monitor observation."""

    time: float
    hostname: str
    cpu_utilization: float
    gpu_utilization: float


def cpu_utilization_series(
    store: NamespaceStore, hostname: str | None = None
) -> dict[str, list[UtilizationPoint]]:
    """Per-node utilization traces from the hardware namespace.

    This is Fig 7's line data: "each colored line shows the CPU
    utilization on a different compute node".
    """
    series: dict[str, list[UtilizationPoint]] = defaultdict(list)
    for record in store:
        proc = record.data
        if "PROC" not in proc:
            continue
        proc_node = proc["PROC"]
        for host, host_node in proc_node.children():
            if hostname is not None and host != hostname:
                continue
            for ts, sample in host_node.children():
                series[host].append(
                    UtilizationPoint(
                        time=float(ts),
                        hostname=host,
                        cpu_utilization=float(
                            sample.get("cpu_utilization", 0.0)
                        ),
                        gpu_utilization=float(
                            sample.get("gpu_utilization", 0.0)
                        ),
                    )
                )
    return {
        host: sorted(points, key=lambda p: p.time)
        for host, points in series.items()
    }


def task_state_observations(
    store: NamespaceStore, event: str = "AGENT_EXECUTING"
) -> list[tuple[float, str]]:
    """(time, task uid) for every observed occurrence of ``event``.

    With the default event these are Fig 7's orange dots: "when the
    SOMA RP monitor observed from RP that a task is starting".
    """
    seen: set[tuple[str, str]] = set()
    out: list[tuple[float, str]] = []
    for record in store:
        data = record.data
        if "RP" not in data:
            continue
        rp = data["RP"]
        for child, child_node in rp.children():
            if not child.startswith("task."):
                continue
            for ts, leaf in child_node.children():
                if leaf.is_leaf and leaf.value == event:
                    key = (child, ts)
                    if key not in seen:
                        seen.add(key)
                        out.append((float(ts), child))
    return sorted(out)


def workflow_summary_series(
    store: NamespaceStore,
) -> list[dict]:
    """The RP monitor's summary stats, one dict per publish.

    Each entry carries the publishing record's ``source`` so consumers
    can separate interleaved series when several monitors publish into
    the same namespace.
    """
    out: list[dict] = []
    for record in store:
        data = record.data
        if "RP/summary" not in data:
            continue
        summary = data["RP/summary"]
        entry: dict = {"time": record.time, "source": record.source}
        for key in ("tasks_seen", "done", "failed", "running", "pending"):
            if key in summary:
                entry[key] = float(summary[key])
        out.append(entry)
    return out


def task_throughput(store: NamespaceStore) -> list[tuple[float, float]]:
    """(time, completed tasks per second) between consecutive summaries.

    Rates are computed only between consecutive summaries from the
    *same* source: with several monitors publishing interleaved
    summaries, a cross-source pair compares unrelated counters and can
    fabricate negative rates.  Within one source a negative rate means
    the ``done`` counter really regressed — that is a symptom worth
    surfacing, so it is reported as-is rather than clamped to zero.
    """
    by_source: dict[str, list[dict]] = defaultdict(list)
    for entry in workflow_summary_series(store):
        by_source[entry["source"]].append(entry)
    out: list[tuple[float, float]] = []
    for series in by_source.values():
        for prev, cur in zip(series, series[1:]):
            dt = cur["time"] - prev["time"]
            if dt <= 0:
                continue
            rate = (cur.get("done", 0.0) - prev.get("done", 0.0)) / dt
            out.append((cur["time"], rate))
    out.sort(key=lambda pair: pair[0])
    return out


def rank_region_breakdown(
    store: NamespaceStore, task_uid: str
) -> dict[int, dict[str, float]]:
    """Per-rank seconds by region for one task (Fig 5's bars)."""
    merged = store.merged()
    if f"TAU/{task_uid}" not in merged:
        return {}
    return _rank_regions(merged[f"TAU/{task_uid}"])


def task_breakdowns(store: NamespaceStore) -> dict[str, dict[int, dict[str, float]]]:
    """:func:`rank_region_breakdown` of every TAU task, from one merge.

    Each stored record is rebuilt on read, so a reader that covers
    every task merges the store once here instead of once per task.
    """
    merged = store.merged()
    if "TAU" not in merged:
        return {}
    return {uid: _rank_regions(node) for uid, node in merged["TAU"].children()}


def _rank_regions(task_node: Node) -> dict[int, dict[str, float]]:
    out: dict[int, dict[str, float]] = {}
    for _host, host_node in task_node.children():
        for rank_name, rank_node in host_node.children():
            rank = int(rank_name.replace("rank", ""))
            regions = {
                region: float(leaf.value)
                for region, leaf in rank_node.children()
                if leaf.is_leaf
            }
            out[rank] = regions
    return out


def load_imbalance(store: NamespaceStore, task_uid: str) -> float:
    """Imbalance metric max/mean over per-rank *compute* time.

    MPI wait regions are excluded: waits complement compute (fast
    ranks wait for stragglers), so total time is flat by construction
    and only the compute split reveals the imbalance (Fig 5).
    """
    return imbalance_ratio(rank_region_breakdown(store, task_uid))


def imbalance_ratio(breakdown: dict[int, dict[str, float]]) -> float:
    """:func:`load_imbalance` of one task's rank/region breakdown."""
    if not breakdown:
        return 0.0
    compute = np.array(
        [
            sum(v for k, v in regions.items() if not k.startswith("MPI_"))
            for regions in breakdown.values()
        ]
    )
    mean = compute.mean()
    if mean <= 0:
        return 0.0
    return float(compute.max() / mean)


def free_resource_estimate(
    hardware_store: NamespaceStore,
    window: float,
    now: float,
) -> dict[str, dict[str, float]]:
    """Mean recent per-resource headroom per node — the online analysis
    the adaptive DDMD experiment performs between phases (Sec 3.2).

    Returns ``{host: {"cpu": h, "gpu": h}}`` with each component
    clamped to ``[0, 1]``: utilization samples above 1.0 (oversampled
    or synthetic stores) must read as *zero* headroom, not negative —
    a negative value fed to the training policy would otherwise
    undercount free GPUs.
    """
    series = cpu_utilization_series(hardware_store)
    headroom: dict[str, dict[str, float]] = {}
    for host, points in series.items():
        recent = [p for p in points if p.time >= now - window]
        if not recent:
            continue
        cpu = float(np.mean([p.cpu_utilization for p in recent]))
        gpu = float(np.mean([p.gpu_utilization for p in recent]))
        headroom[host] = {
            "cpu": min(1.0, max(0.0, 1.0 - cpu)),
            "gpu": min(1.0, max(0.0, 1.0 - gpu)),
        }
    return headroom
