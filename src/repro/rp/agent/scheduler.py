"""The agent scheduler: continuous placement of tasks onto node slots.

"The Agent's scheduler assigns tasks to suitable portions of the
available resources and then queues those tasks to an Executor"
(paper Fig 1, steps 6-7).  Placement is first-fit over the pilot's
nodes; MPI tasks may span nodes, single-node tasks may not.  Service
and monitor tasks are pinned according to their tags, and application
tasks may only touch SOMA service nodes when the pilot runs in the
"shared" configuration (Figs 10/11).

The scheduler is a single sequential loop, so its per-decision cost —
``schedule_base_cost + schedule_per_node_cost × nodes scanned`` —
bounds the agent's task throughput exactly as in the real system.
That cost is simulated time; the host pays O(1) per scanned node, since
each node keeps its free-slot counts up to date.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ...platform.node import Allocation, Node
from ...sim.core import Event, Interrupt
from ...sim.stores import Store
from ..description import TaskMode
from ..states import TaskState
from ..task import Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .agent import Agent

__all__ = ["AgentScheduler", "Placement"]


class Placement:
    """Where a task landed: one allocation per node used."""

    __slots__ = ("task", "allocations")

    def __init__(self, task: Task, allocations: list[Allocation]) -> None:
        self.task = task
        self.allocations = allocations

    @property
    def nodes(self) -> list[Node]:
        return [a.node for a in self.allocations]

    def release(self) -> None:
        for allocation in self.allocations:
            allocation.release()


class AgentScheduler:
    """First-fit continuous scheduler over the pilot's nodes."""

    def __init__(self, agent: "Agent") -> None:
        self.agent = agent
        self.session = agent.session
        self.env = agent.session.env
        self._inbox: Store = Store(self.env)
        #: Tasks that did not fit yet, in arrival order.
        self._waiting: list[Task] = []
        self._wake: Event | None = None
        self._release_pending = False
        self._stopped = False
        #: Rotating scan start so placements distribute over the
        #: machine instead of piling onto low-index nodes.
        self._rr_index = 0
        #: Optional adaptive node ordering (utilization-aware
        #: placement, Sec 4.2); overrides the rotation when set.
        self._node_ranker = None
        self.scheduled_count = 0
        #: Open "agent.schedule" telemetry spans by task uid — one per
        #: admitted task, closed at exactly one of the three exits of
        #: :meth:`_schedule_pass` (placed / unschedulable / canceled).
        self._spans: dict[str, object] = {}
        self._proc = self.env.process(self._run(), name="agent-scheduler")

    # -- interface to the rest of the agent ------------------------------

    def submit(self, task: Task) -> None:
        """Queue a task for placement."""
        self._inbox.put(task)

    def notify_released(self) -> None:
        """Executor signal: resources were freed, retry the wait list."""
        self._release_pending = True
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def set_node_ranker(self, ranker) -> None:
        """Install a callable ordering eligible nodes per placement.

        Used by :class:`repro.adaptive.UtilizationAwarePlacement`; pass
        ``None`` to restore the default rotating first-fit.
        """
        self._node_ranker = ranker

    def stop(self) -> None:
        self._stopped = True
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        if self._proc.is_alive:
            self._proc.interrupt("scheduler-stop")

    @property
    def num_waiting(self) -> int:
        return len(self._waiting) + len(self._inbox)

    # -- main loop ----------------------------------------------------------

    def _run(self) -> Generator[Event, object, None]:
        cfg = self.session.config
        try:
            while not self._stopped:
                # Drain newly arrived tasks into the wait list.
                if not self._waiting:
                    task = yield self._inbox.get()
                    yield from self._admit(task)
                while len(self._inbox):
                    task = yield self._inbox.get()
                    yield from self._admit(task)

                self._release_pending = False
                progressed = yield from self._schedule_pass()

                if self._stopped:
                    break
                if self._release_pending:
                    # Resources were freed while we were sweeping; a
                    # waiting task may fit now, so sweep again.
                    continue
                if not progressed and not len(self._inbox):
                    # Nothing fits: sleep until the executor frees
                    # resources or a new task arrives.
                    self._wake = self.env.event()
                    arrival = self._inbox.get()
                    from ...sim.events import AnyOf

                    fired = yield AnyOf(self.env, [self._wake, arrival])
                    if arrival in fired:
                        yield from self._admit(arrival.value)
                    elif not arrival.triggered:
                        # Withdraw the unused get so the item is not lost.
                        arrival.cancel()
                    self._wake = None
        except Interrupt:
            return

    @staticmethod
    def _admission_priority(task: Task) -> int:
        """Services before monitors before application tasks — "the
        SOMA service task needs to be scheduled before any application
        tasks" (paper Sec 2.3.1)."""
        if task.description.mode == TaskMode.SERVICE:
            return -100
        if task.description.mode == TaskMode.MONITOR:
            return -50
        return task.description.priority

    def _end_schedule_span(self, task: Task, **attributes) -> None:
        span = self._spans.pop(task.uid, None)
        if span is not None:
            self.session.telemetry.end_span(span, **attributes)

    def _admit(self, task: Task) -> Generator[Event, None, None]:
        """Accept a task into the wait list (AGENT_SCHEDULING)."""
        tel = self.session.telemetry
        span = tel.start_span(
            "agent.schedule",
            component="rp-agent",
            parent=tel.binding(task.uid),
            uid=task.uid,
        )
        if span is not None:
            self._spans[task.uid] = span
        yield from self.agent.updater.advance(task, TaskState.AGENT_SCHEDULING)
        priority = self._admission_priority(task)
        index = len(self._waiting)
        while index > 0 and self._admission_priority(
            self._waiting[index - 1]
        ) > priority:
            index -= 1
        self._waiting.insert(index, task)

    def _schedule_pass(self) -> Generator[Event, None, bool]:
        """One first-fit sweep over the wait list."""
        cfg = self.session.config
        progressed = False
        index = 0
        failures = 0
        while index < len(self._waiting):
            task = self._waiting[index]
            if task.is_final:  # canceled while waiting
                self._waiting.pop(index)
                self._end_schedule_span(task, outcome="canceled")
                continue
            eligible = self._eligible_nodes(task)
            if not self._can_ever_fit(task, eligible):
                # No amount of waiting will help: fail the task.
                self._waiting.pop(index)
                yield from self.agent.updater.advance(
                    task, TaskState.FAILED, reason="unschedulable"
                )
                self._end_schedule_span(task, outcome="unschedulable")
                continue
            allocations, scanned = self._try_place(task, eligible)
            # The decision cost covers the nodes actually scanned,
            # whether or not placement succeeded.
            cost = cfg.schedule_base_cost + cfg.schedule_per_node_cost * scanned
            yield self.env.timeout(self.session.jitter(cost))
            if allocations is None:
                index += 1
                failures += 1
                if failures >= cfg.schedule_lookahead:
                    # Bounded backfill lookahead, as in RP's continuous
                    # scheduler: stop sweeping once the queue head is
                    # clearly blocked.
                    break
                continue
            failures = 0
            self._waiting.pop(index)
            placement = Placement(task, allocations)
            task.nodelist = [n.name for n in placement.nodes]
            yield from self.agent.updater.advance(
                task,
                TaskState.AGENT_EXECUTING_PENDING,
                node=",".join(task.nodelist),
            )
            for allocation in allocations:
                self.session.tracer.record(
                    "rp.alloc",
                    task.uid,
                    node=allocation.node.name,
                    cores=list(allocation.cores),
                    gpus=list(allocation.gpus),
                )
            self.scheduled_count += 1
            self._end_schedule_span(
                task, outcome="placed", nodes=",".join(task.nodelist)
            )
            self.agent.executor.submit(placement)
            progressed = True
        return progressed

    # -- placement ---------------------------------------------------------------

    def _eligible_nodes(self, task: Task) -> list[Node]:
        nodes = self._eligible_nodes_raw(task)
        return [n for n in nodes if n.alive]

    def _eligible_nodes_raw(self, task: Task) -> list[Node]:
        description = task.description
        pilot = self.agent.pilot
        pinned = description.tags.get("node")
        if pinned:
            return [n for n in pilot.nodes if n.name == pinned]
        colocate = description.tags.get("colocate")
        if colocate == "agent":
            return list(pilot.agent_nodes)
        if description.mode == TaskMode.SERVICE:
            # Infrastructure services (SOMA) live on the service/agent
            # nodes; compute-pool services (RAPTOR workers) ask for the
            # compute nodes explicitly.
            if description.tags.get("pool") == "compute":
                return list(pilot.compute_nodes)
            return (
                list(pilot.service_nodes)
                if pilot.service_nodes
                else list(pilot.agent_nodes)
            )
        if description.mode == TaskMode.MONITOR:
            return list(pilot.agent_nodes)
        # Application tasks: compute nodes, plus service nodes when the
        # pilot is configured to share them.
        nodes = list(pilot.compute_nodes)
        if pilot.description.share_service_nodes:
            nodes = nodes + list(pilot.service_nodes)
        return nodes

    def _can_ever_fit(self, task: Task, eligible: list[Node]) -> bool:
        """Capacity check against *total* (not free) resources."""
        description = task.description
        if not eligible:
            return False
        if not description.multi_node or description.gpus_per_rank > 0:
            return any(
                node.total_cores >= description.total_cores
                and node.total_gpus >= description.total_gpus
                for node in eligible
            )
        slots = sum(
            node.total_cores // description.cores_per_rank for node in eligible
        )
        return slots >= description.ranks

    def _try_place(
        self, task: Task, eligible: list[Node]
    ) -> tuple[list[Allocation] | None, int]:
        """Attempt placement; returns (allocations | None, nodes scanned)."""
        description = task.description
        cpr = description.cores_per_rank
        gpr = description.gpus_per_rank

        if len(eligible) > 1 and not description.tags:
            if self._node_ranker is not None:
                # Adaptive ordering (e.g. least-utilized node first).
                eligible = list(self._node_ranker(eligible))
            else:
                # Rotate the scan start for untagged application tasks.
                start = self._rr_index % len(eligible)
                eligible = eligible[start:] + eligible[:start]
                self._rr_index += 1

        if not description.multi_node or gpr > 0:
            # Single-node placement (all DDMD tasks, monitors, services
            # with GPUs).  First node with enough cores and GPUs wins.
            cores = description.total_cores
            gpus = description.total_gpus
            for scanned, node in enumerate(eligible, start=1):
                if node.free_cores >= cores and node.free_gpus >= gpus:
                    return [node.allocate(cores, gpus, owner=task.uid)], scanned
            return None, len(eligible)

        # Multi-node placement.  Service tasks are balanced across
        # their nodes (jsrun-style round-robin distribution) so every
        # service node keeps free cores/GPUs for opportunistic sharing;
        # application MPI tasks use first-fit, taking whole rank slots
        # per node until all ranks are placed.
        remaining = description.ranks
        plan: list[tuple[Node, int]] = []
        if description.mode == TaskMode.SERVICE and len(eligible) > 1:
            per_node = -(-description.ranks // len(eligible))  # ceil
            for node in eligible:
                slots = min(per_node, node.free_cores // cpr, remaining)
                if slots > 0:
                    plan.append((node, slots))
                    remaining -= slots
                if remaining == 0:
                    break
        if remaining > 0:
            plan_ff: list[tuple[Node, int]] = []
            taken = {node: take for node, take in plan}
            for node in eligible:
                slots = node.free_cores // cpr - taken.get(node, 0)
                if slots <= 0:
                    continue
                take = min(slots, remaining)
                plan_ff.append((node, take))
                remaining -= take
                if remaining == 0:
                    break
            plan = plan + plan_ff
        if remaining > 0:
            return None, len(eligible)
        return [
            node.allocate(take * cpr, 0, owner=task.uid) for node, take in plan
        ], len(eligible)
