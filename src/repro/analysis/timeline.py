"""Reconstruction of the RP resource-utilization timeline (Fig 8).

Fig 8 colours each core of the pilot over time: light blue while RP
bootstraps, purple while a task is being scheduled onto the core,
green while a task runs on it, white when idle.  We rebuild exactly
that view from the session tracer: ``rp.alloc`` records give core
assignments, task profile events give the scheduling/running phase
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rp.session import Session
from ..rp.task import Task

__all__ = [
    "CoreInterval",
    "ResourceTimeline",
    "build_timeline",
]

#: Interval kinds, matching the Fig 8 legend.
BOOTSTRAP = "bootstrap"
SCHEDULING = "scheduling"
RUNNING = "running"


@dataclass(frozen=True, slots=True)
class CoreInterval:
    """One coloured interval on one core of one node."""

    node: str
    core: int
    start: float
    stop: float
    kind: str
    task: str = ""

    @property
    def duration(self) -> float:
        return self.stop - self.start


class ResourceTimeline:
    """All intervals of one run."""

    def __init__(self, intervals: list[CoreInterval]) -> None:
        self.intervals = intervals

    def kinds(self) -> set[str]:
        return {iv.kind for iv in self.intervals}

    def busy_core_seconds(self, kind: str = RUNNING) -> float:
        return sum(iv.duration for iv in self.intervals if iv.kind == kind)


def build_timeline(
    session: Session,
    tasks: dict[str, Task],
    nodes: list[str] | None = None,
) -> ResourceTimeline:
    """Rebuild the Fig 8 view from tracer records and task events."""
    intervals: list[CoreInterval] = []
    t_end = session.env.now

    # Bootstrap band: from pilot record 'bootstrap_start' to
    # 'bootstrap_done' across every core of every node.
    boot = {
        rec.get("event"): rec.time
        for rec in session.tracer.select(category="rp.pilot")
    }
    ncores = session.cluster.spec.node.usable_cores
    if "bootstrap_start" in boot and "bootstrap_done" in boot:
        for node in nodes or [n.name for n in session.cluster.nodes]:
            for core in range(ncores):
                intervals.append(
                    CoreInterval(
                        node=node,
                        core=core,
                        start=boot["bootstrap_start"],
                        stop=boot["bootstrap_done"],
                        kind=BOOTSTRAP,
                    )
                )

    # Allocation records: which cores each task got, and when.
    for rec in session.tracer.select(category="rp.alloc"):
        task = tasks.get(rec.name)
        if task is None:
            continue
        if nodes is not None and rec.get("node") not in nodes:
            continue
        # Purple starts when the cores are actually assigned (a task
        # waiting in the scheduler queue holds no resources).
        sched_start = task.time_of("AGENT_EXECUTING_PENDING") or rec.time
        # Green = ranks actually executing; the launch method's spawn
        # time stays purple, as in Fig 8.
        run_start = task.time_of("exec_start")
        run_stop = task.time_of("launch_stop") or (
            task.finished_at if task.finished_at is not None else t_end
        )
        for core in rec.get("cores", []):
            if run_start is not None:
                intervals.append(
                    CoreInterval(
                        node=rec.get("node"),
                        core=core,
                        start=sched_start,
                        stop=run_start,
                        kind=SCHEDULING,
                        task=rec.name,
                    )
                )
                intervals.append(
                    CoreInterval(
                        node=rec.get("node"),
                        core=core,
                        start=run_start,
                        stop=run_stop,
                        kind=RUNNING,
                        task=rec.name,
                    )
                )
            else:
                intervals.append(
                    CoreInterval(
                        node=rec.get("node"),
                        core=core,
                        start=sched_start,
                        stop=run_stop if run_stop is not None else t_end,
                        kind=SCHEDULING,
                        task=rec.name,
                    )
                )
    return ResourceTimeline(intervals)

