"""RAPTOR: RP's master/worker subsystem for function tasks.

The paper notes RP "utilizes a dedicated subsystem called RAPTOR to
execute Python functions at a very large scale" (Sec 2.1).  The
experiments do not exercise RAPTOR, but a faithful RP substrate should
carry it: a *master* task fans function calls out to resident *worker*
tasks, amortizing per-task launch overhead — the property that makes
function tasks cheap compared to executable tasks.

Workers are resident service-mode tasks holding cores; the master
dispatches :class:`FunctionCall` items to the first free worker.  A
call is simulated CPU work: its outcome is its completion time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Generator

from ..sim.core import Event, Interrupt
from ..sim.stores import Store
from .description import TaskDescription, TaskMode
from .model import ExecutionContext, ServiceModel, TaskResult

__all__ = ["FunctionCall", "RaptorWorkerModel", "RaptorMaster"]

#: Memory intensity of a function call's CPU work.
CALL_MEM_INTENSITY = 0.1


@dataclass(slots=True)
class FunctionCall:
    """One function invocation dispatched through RAPTOR."""

    #: Simulated function: duration model (seconds of CPU per core).
    duration: float
    cores: int = 1
    #: Minted by :meth:`RaptorMaster.submit` from the run's environment.
    uid: int = -1
    #: Completion plumbing, filled by the master and the worker.
    done: Event | None = None
    submitted_at: float = 0.0
    finished_at: float | None = None
    #: Telemetry baggage (a SpanContext) stamped at submit time.
    ctx: Any = None


class RaptorWorkerModel(ServiceModel):
    """A resident worker executing function calls on its cores."""

    def __init__(self, master: "RaptorMaster") -> None:
        self.master = master
        #: Minted worker uid — inbox routing must not key on id():
        #: CPython addresses vary run to run, which would make any
        #: iteration or trace of the inbox table nondeterministic.
        self.uid = master.env.new_id("raptor.worker")

    def execute(self, ctx: ExecutionContext):
        inbox: Store = Store(ctx.env)
        self.master._worker_inboxes[self.uid] = inbox
        self.master._register_worker(self)
        try:
            while True:
                call: FunctionCall = yield inbox.get()
                tel = ctx.env._telemetry
                span = None
                if tel is not None:
                    # The call envelope carries the submitter's context
                    # across the master/worker hand-off.
                    span = tel.start_span(
                        f"raptor.call:{call.uid}",
                        component="raptor",
                        parent=call.ctx,
                        activate=True,
                        worker=self.uid,
                    )
                try:
                    placement = ctx.placements[0]
                    act = placement.node.run_compute(
                        cores=min(call.cores, placement.num_cores),
                        work=call.duration * placement.node.spec.core_speed,
                        mem_intensity=CALL_MEM_INTENSITY,
                    )
                    yield act.done
                    call.finished_at = ctx.env.now
                    self.master._call_finished(self, call)
                finally:
                    if tel is not None:
                        tel.end_span(span)
        except Interrupt:
            pass
        return TaskResult(exit_code=0)


class RaptorMaster:
    """Dispatches function calls to resident workers, FIFO."""

    def __init__(self, env) -> None:
        self.env = env
        self._workers: list[RaptorWorkerModel] = []
        self._free: deque[RaptorWorkerModel] = deque()
        self._worker_inboxes: dict[int, Store] = {}
        self._backlog: deque[FunctionCall] = deque()
        self.dispatched = 0
        self.completed = 0

    # -- worker construction -------------------------------------------

    def worker_description(
        self, cores: int = 4, name: str = "raptor-worker"
    ) -> TaskDescription:
        """A task description for one worker of this master."""
        return TaskDescription(
            name=name,
            model=RaptorWorkerModel(self),
            ranks=1,
            cores_per_rank=cores,
            mode=TaskMode.SERVICE,
            multi_node=False,
            tags={"pool": "compute"},
        )

    def _register_worker(self, worker: RaptorWorkerModel) -> None:
        self._workers.append(worker)
        self._free.append(worker)
        self._pump()

    # -- call submission ----------------------------------------------------

    def submit(self, call: FunctionCall) -> Event:
        """Queue a function call; returns its completion event."""
        call.uid = self.env.new_id("raptor.call")
        call.done = self.env.event()
        call.submitted_at = self.env.now
        tel = self.env._telemetry
        if tel is not None and call.ctx is None:
            call.ctx = tel.current()
        if tel is not None and tel.provenance is not None:
            tel.provenance.note_raptor_submit(call.uid, self.env.now, call.ctx)
        self._backlog.append(call)
        self._pump()
        return call.done

    def map(
        self, calls: list[FunctionCall]
    ) -> Generator[Event, None, list[FunctionCall]]:
        """Submit many calls and wait for all (process generator)."""
        from ..sim.events import AllOf

        events = [self.submit(c) for c in calls]
        yield AllOf(self.env, events)
        return calls

    # -- dispatch ---------------------------------------------------------------

    def _pump(self) -> None:
        tel = self.env._telemetry
        prov = tel.provenance if tel is not None else None
        while self._backlog and self._free:
            call = self._backlog.popleft()
            worker = self._free.popleft()
            self._worker_inboxes[worker.uid].put(call)
            self.dispatched += 1
            if prov is not None:
                prov.note_raptor_dispatch(call.uid, worker.uid, self.env.now)

    def _call_finished(self, worker: RaptorWorkerModel, call: FunctionCall) -> None:
        self.completed += 1
        self._free.append(worker)
        if call.done is not None and not call.done.triggered:
            call.done.succeed(call)
        self._pump()

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def backlog(self) -> int:
        return len(self._backlog)
