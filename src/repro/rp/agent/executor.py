"""The agent executor: launches placed tasks on their resources.

"The Agent's Executor places each task on the assigned resources, sets
up their execution environment, and launches each task for execution"
(paper Fig 1, step 8).  The executor emits the timestamped events of
Listing 1 — launch_start, exec_start, rank_start, rank_stop, exec_stop,
launch_stop — around the task model's actual execution, then releases
the resources and finalizes the task state.

Service tasks (mode=service/monitor) stay resident: their model parks
until the agent interrupts them at workflow shutdown.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ...platform.node import NodeFailure
from ...sim.core import Event, Interrupt, Process
from ...sim.stores import Store
from ..description import TaskMode
from ..model import ExecutionContext, TaskResult
from ..states import TaskState
from .scheduler import Placement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..task import Task
    from .agent import Agent

__all__ = ["AgentExecutor"]


class AgentExecutor:
    """Concurrent task launcher."""

    def __init__(self, agent: "Agent") -> None:
        self.agent = agent
        self.session = agent.session
        self.env = agent.session.env
        self._inbox: Store = Store(self.env)
        # Task-process tables are written by the executor loop and read
        # by cancel()/stop() from other processes; opted in to the
        # kernel's write-between-yields race detection under sanitize.
        self._procs: "dict[str, Process]" = self.env.shared_dict(
            "rp.executor.procs"
        )
        self._service_procs: "dict[str, Process]" = self.env.shared_dict(
            "rp.executor.service_procs"
        )
        self._stopped = False
        self.launched = 0
        self.completed = 0
        self.failed = 0
        self._proc = self.env.process(self._run(), name="agent-executor")

    def submit(self, placement: Placement) -> None:
        self._inbox.put(placement)

    def stop(self) -> None:
        """Shut down: interrupt resident service tasks."""
        self._stopped = True
        for uid, proc in list(self._service_procs.items()):
            if proc.is_alive:
                proc.interrupt("service-shutdown")
        if self._proc.is_alive:
            self._proc.interrupt("executor-stop")

    def cancel(self, uid: str) -> bool:
        """Interrupt a running task; returns True if it was running."""
        proc = self._procs.get(uid)
        if proc is not None and proc.is_alive:
            proc.interrupt("task-cancel")
            return True
        return False

    # -- internals ---------------------------------------------------------

    def _run(self) -> Generator[Event, object, None]:
        try:
            while True:
                placement: Placement = yield self._inbox.get()
                proc = self.env.process(
                    self._execute(placement),
                    name=f"exec-{placement.task.uid}",
                )
                self._procs[placement.task.uid] = proc
                if placement.task.description.mode in (
                    TaskMode.SERVICE,
                    TaskMode.MONITOR,
                ):
                    self._service_procs[placement.task.uid] = proc
        except Interrupt:
            return

    def _execute(self, placement: Placement) -> Generator[Event, object, None]:
        task = placement.task
        tel = self.session.telemetry
        with tel.span(
            "agent.execute",
            component="rp-agent",
            parent=tel.binding(task.uid),
            uid=task.uid,
        ):
            yield from self._execute_inner(placement)
        # Keep no finished task's process.  A plain del: the sanitizer's
        # SharedDict counts a pop as a read, keeping this process.
        del self._procs[task.uid]

    def _execute_inner(
        self, placement: Placement
    ) -> Generator[Event, object, None]:
        cfg = self.session.config
        task = placement.task
        updater = self.agent.updater
        node_names = ",".join(n.name for n in placement.nodes)
        interrupted = False
        try:
            # Cancelled after placement but before this process existed,
            # so there was nothing to interrupt and Agent.cancel finalized
            # the task: launch nothing, and free the placement below.
            if task.is_final:
                return
            # A node that died between placement and launch fails the
            # task up front instead of launching ranks into the void.
            dead = [n.name for n in placement.nodes if not n.alive]
            if dead:
                self._fail(task, NodeFailure(f"placement includes dead node(s) {dead}"))
                return
            yield from updater.advance(
                task, TaskState.AGENT_EXECUTING, node=node_names
            )
            yield from updater.record_event(task, "launch_start", node=node_names)
            launch = cfg.launch_overhead + (
                cfg.launch_per_rank_cost * task.description.ranks
            )
            yield self.env.timeout(self.session.jitter(launch))
            yield from updater.record_event(task, "exec_start", node=node_names)
            yield from updater.record_event(task, "rank_start", node=node_names)
            self.launched += 1

            ctx = ExecutionContext(
                env=self.env,
                task=task,
                placements=placement.allocations,
                network=self.session.cluster.network,
                rng=self.session.rng,
                session=self.session,
            )
            model = task.description.model
            if model is None:
                result = TaskResult(exit_code=0)
            else:
                try:
                    result = yield from model.execute(ctx)
                except Interrupt:
                    raise
                except Exception as exc:  # model bug -> task failure, not crash
                    self._fail(task, exc)
                    return
            task.result = result

            yield from updater.record_event(task, "rank_stop", node=node_names)
            yield from updater.record_event(task, "exec_stop", node=node_names)
            yield self.env.timeout(self.session.jitter(cfg.teardown_overhead))
            yield from updater.record_event(task, "launch_stop", node=node_names)

            yield from updater.advance(
                task, TaskState.AGENT_STAGING_OUTPUT, node=node_names
            )
            if cfg.staging_time > 0:
                yield self.env.timeout(cfg.staging_time)

            # Resources must be free before the final state fires, so
            # anyone woken by task.completed sees them released.
            self._release(placement)

            if result.exit_code == 0:
                yield from updater.advance(task, TaskState.DONE, node=node_names)
                self.completed += 1
            else:
                yield from updater.advance(task, TaskState.FAILED, node=node_names)
                self.failed += 1
        except Interrupt:
            # Service shutdown (expected) or task cancel.
            interrupted = True
            if not task.is_final:
                final = (
                    TaskState.DONE
                    if task.description.mode
                    in (TaskMode.SERVICE, TaskMode.MONITOR)
                    else TaskState.CANCELED
                )
                task.advance(final)
        finally:
            self._release(placement, notify=not interrupted or not self._stopped)

    def _fail(self, task: "Task", exc: Exception) -> None:
        """A model bug or a dead placement fails the task, not the run.

        Any other error is a runtime bug and propagates out of
        ``env.run``.
        """
        task.exception = exc
        if not task.is_final:
            task.advance(TaskState.FAILED)
        self.failed += 1

    def _release(self, placement: Placement, notify: bool = True) -> None:
        """Release a placement exactly once and wake the scheduler."""
        if all(a.released for a in placement.allocations):
            return
        placement.release()
        self.session.tracer.record(
            "rp.free",
            placement.task.uid,
            nodes=[n.name for n in placement.nodes],
        )
        if notify:
            self.agent.scheduler.notify_released()
