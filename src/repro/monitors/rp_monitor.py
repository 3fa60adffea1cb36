"""The SOMA RP (workflow) monitoring client (paper Sec 2.3.2).

One client per workflow, "launched as a daemon, periodically reads the
appropriate profile files generated by RP, summarizes basic statistics
about the workflow from this data, and publishes the same to the SOMA
service processes at a configurable monitoring frequency".  It is
scheduled onto the RP agent node, sharing its resources.

Like the real client, each sample *re-parses the profile files from the
beginning*, holding the profile I/O lock the agent's updater writes
under — so a large workflow monitored frequently contends with RP's
own state machinery (the Fig 11 overhead mechanism).  That re-parse is
simulated time; on the host the summary is a running
:class:`ProfileFold` that consumes only the records new since the last
sample, and the read builds a record only for each of those.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ..conduit import Node as ConduitNode
from ..rp.description import TaskDescription, TaskMode
from ..rp.model import ExecutionContext, ServiceModel, TaskResult
from ..rp.states import TASK_FINAL_STATES, TaskState
from ..messaging.protocol import ServiceUnavailable
from ..sim.core import Interrupt
from ..soma.client import SomaClient
from ..soma.namespaces import WORKFLOW

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rp.profiler import ProfileRecord
    from ..rp.session import Session
    from ..soma.service import SomaConfig

__all__ = ["ProfileFold", "RPMonitorModel", "rp_monitor_description", "summarize_profile"]


class ProfileFold:
    """Running summary of an append-only profile.

    :meth:`fold` consumes records in arrival order; :meth:`snapshot`
    then summarizes every record folded so far at any ``now``.  How the
    records were chunked does not matter: values, key order (it becomes
    Conduit child order) and float summation order are those of one
    pass over all of them.  The monitor folds only each period's new
    records instead of re-summarizing the whole profile.
    """

    def __init__(self) -> None:
        #: Records folded so far (the cursor into the profile).
        self.folded = 0
        self._last_state: dict[str, str] = {}
        self._entered: dict[str, float] = {}
        #: Time in state over closed intervals, in record order.
        self._closed: Counter = Counter()

    def fold(self, records: "list[ProfileRecord]") -> None:
        last_state, entered, closed = self._last_state, self._entered, self._closed
        for record in records:
            if record.event != "state" or not record.entity.startswith("task."):
                continue
            uid = record.entity
            prev = last_state.get(uid)
            if prev is not None:
                closed[prev] += record.time - entered[uid]
            last_state[uid] = record.state
            entered[uid] = record.time
        self.folded += len(records)

    def snapshot(self, now: float) -> dict[str, object]:
        time_in_state = Counter(self._closed)
        # Open intervals accrue until 'now'.
        for uid, state in self._last_state.items():
            if state not in TASK_FINAL_STATES:
                time_in_state[state] += now - self._entered[uid]
        state_counts = Counter(self._last_state.values())
        pending = sum(
            count
            for state, count in state_counts.items()
            if state not in TASK_FINAL_STATES and state != TaskState.AGENT_EXECUTING
        )
        return {
            "tasks_seen": len(self._last_state),
            "state_counts": dict(state_counts),
            "time_in_state": dict(time_in_state),
            "done": state_counts.get(TaskState.DONE, 0),
            "failed": state_counts.get(TaskState.FAILED, 0),
            "running": state_counts.get(TaskState.AGENT_EXECUTING, 0),
            "pending": pending,
        }


def summarize_profile(
    records: "list[ProfileRecord]", now: float
) -> dict[str, object]:
    """Basic workflow statistics from raw profile records.

    Returns per-state task counts, time-in-state aggregates and recent
    event timestamps — what the paper's client computes online.
    """
    fold = ProfileFold()
    fold.fold(records)
    return fold.snapshot(now)


class RPMonitorModel(ServiceModel):
    """Resident daemon summarizing RP workflow state for SOMA."""

    def __init__(self, session: "Session", config: "SomaConfig") -> None:
        self.session = session
        self.config = config
        self.samples = 0
        self.client: SomaClient | None = None
        #: Running summary; its cursor also marks the first profile
        #: record not yet published.
        self._fold = ProfileFold()

    def execute(self, ctx: ExecutionContext):
        env = ctx.env
        node = ctx.placements[0].node
        period = self.config.monitoring_frequency
        self.client = self.config.make_client(
            self.session, name="rpmon", node=node
        )
        try:
            while True:
                yield env.timeout(period)
                with self.session.telemetry.span(
                    "rpmon.sample", component="monitor", source="rpmon"
                ):
                    # Re-parse the profile files from the start, under
                    # the I/O lock shared with RP's updater.
                    try:
                        records, _cursor = yield from self.session.profiles.read_since(0)
                    except ServiceUnavailable:
                        # Profile store is out: skip this period rather
                        # than stall the daemon; the gap shows up as a
                        # missing sample in the workflow namespace.
                        self.session.tracer.record(
                            "rp.monitor_skip", "profile_store", source="rpmon"
                        )
                        continue
                    # The profile is append-only: fold just the new tail
                    # (only its records are built).
                    fresh = records[self._fold.folded :]
                    self._fold.fold(fresh)
                    summary = self._fold.snapshot(env.now)
                    self.samples += 1
                    tree = self._to_conduit(summary, fresh)
                    yield from self.client.publish(WORKFLOW, tree)
        except Interrupt:
            pass
        return TaskResult(exit_code=0)

    def _to_conduit(
        self, summary: dict[str, object], fresh: "list[ProfileRecord]"
    ) -> ConduitNode:
        """Listing-1-style tree: summary stats + new task events."""
        tree = ConduitNode()
        rp = tree.fetch("RP")
        stats = rp.fetch("summary")
        stats["timestamp"] = self.session.env.now
        for key in ("tasks_seen", "done", "failed", "running", "pending"):
            stats[key] = int(summary[key])  # type: ignore[arg-type]
        counts = summary["state_counts"]
        if counts:
            states = stats.fetch("states")
            for state, count in counts.items():  # type: ignore[union-attr]
                states[state] = int(count)
        seconds_by_state = summary["time_in_state"]
        if seconds_by_state:
            in_state = stats.fetch("time_in_state")
            for state, seconds in seconds_by_state.items():  # type: ignore[union-attr]
                in_state[state] = round(float(seconds), 3)
        # Per-task events not yet published (Listing 1), so every
        # timestamped event reaches SOMA exactly once.
        for record in fresh:
            if record.entity.startswith("task."):
                rp.fetch(record.entity)[f"{record.time:.6f}"] = (
                    record.event if record.event != "state" else record.state
                )
        return tree


def rp_monitor_description(
    session: "Session", config: "SomaConfig"
) -> TaskDescription:
    """The single per-workflow RP monitor, co-located with the agent."""
    model = RPMonitorModel(session, config)
    return TaskDescription(
        name="soma-rpmon",
        model=model,
        ranks=1,
        cores_per_rank=1,
        mode=TaskMode.MONITOR,
        multi_node=False,
        tags={"colocate": "agent"},
        metadata={"monitor_model": model},
    )
