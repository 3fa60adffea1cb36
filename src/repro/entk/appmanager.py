"""EnTK AppManager: lowers pipelines/stages onto an RP client.

"This is configured and managed by RADICAL-EnTK (Ensemble Toolkit),
which is a higher-level abstraction of RADICAL-Pilot functionality"
(paper Sec 3.2).  The AppManager runs each pipeline as a process:
submit a stage's tasks, wait for the barrier, continue.  An optional
``between_phases`` callback (every ``stages_per_phase`` stages) hosts
the adaptive-experiment analysis the paper performs between DDMD
phases; it is the one hook the experiments use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from ..rp.client import Client
from ..rp.states import TaskState
from ..sim.core import Event
from ..sim.events import AllOf
from .pipeline import Pipeline
from .stage import Stage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rp.task import Task

__all__ = ["AppManager"]


class AppManager:
    """Executes pipelines of stages on one RP client."""

    def __init__(
        self,
        client: Client,
        stages_per_phase: int = 4,
        between_phases: Callable[[Pipeline, int], None] | None = None,
    ) -> None:
        self.client = client
        self.env = client.session.env
        self.stages_per_phase = stages_per_phase
        self.between_phases = between_phases
        self.pipelines: list[Pipeline] = []
        self.failed_tasks: "list[Task]" = []

    def run(
        self, pipelines: list[Pipeline]
    ) -> Generator[Event, None, list[Pipeline]]:
        """Run all pipelines concurrently; returns when all are done.

        Mints the uids from the run's environment first: each pipeline,
        then its stages, in list order.
        """
        for pipeline in pipelines:
            pipeline.uid = f"pipeline.{self.env.new_id('pipeline'):04d}"
            pipeline.name = pipeline.name or pipeline.uid
            for stage in pipeline.stages:
                stage.uid = f"stage.{self.env.new_id('stage'):06d}"
                stage.name = stage.name or stage.uid
        self.pipelines.extend(pipelines)
        procs = [
            self.env.process(
                self._run_pipeline(p), name=f"entk-{p.uid}"
            )
            for p in pipelines
        ]
        if procs:
            yield AllOf(self.env, procs)
        return pipelines

    def _run_pipeline(
        self, pipeline: Pipeline
    ) -> Generator[Event, None, None]:
        pipeline.started_at = self.env.now
        with self.client.session.telemetry.span(
            f"pipeline:{pipeline.uid}", component="entk", uid=pipeline.uid
        ):
            self.client.session.tracer.record(
                "entk.pipeline", pipeline.uid, event="start"
            )
            for index, stage in enumerate(pipeline.stages):
                yield from self._run_stage(pipeline, stage)
                if (
                    self.between_phases is not None
                    and self.stages_per_phase > 0
                    and (index + 1) % self.stages_per_phase == 0
                ):
                    phase = (index + 1) // self.stages_per_phase - 1
                    self.between_phases(pipeline, phase)
            pipeline.finished_at = self.env.now
            self.client.session.tracer.record(
                "entk.pipeline",
                pipeline.uid,
                event="done",
                duration=pipeline.duration,
            )

    def _run_stage(
        self, pipeline: Pipeline, stage: Stage
    ) -> Generator[Event, None, None]:
        stage.started_at = self.env.now
        # Task root spans created under this stage span adopt it as
        # their parent — the hand-off from EnTK to RP in every trace.
        with self.client.session.telemetry.span(
            f"stage:{stage.name}",
            component="entk",
            uid=stage.uid,
            pipeline=pipeline.uid,
        ):
            stage.tasks = self.client.submit_tasks(stage.task_descriptions)
            yield from self.client.wait_tasks(stage.tasks)
            stage.finished_at = self.env.now
            for task in stage.tasks:
                if task.state != TaskState.DONE:
                    self.failed_tasks.append(task)
            self.client.session.tracer.record(
                "entk.stage",
                stage.uid,
                pipeline=pipeline.uid,
                stage_name=stage.name,
                duration=stage.duration,
            )

    # -- results -----------------------------------------------------------

    def pipeline_durations(self) -> list[float]:
        return [
            p.duration for p in self.pipelines if p.duration is not None
        ]

    def stage_durations(self, name: str | None = None) -> list[float]:
        out = []
        for pipeline in self.pipelines:
            for stage in pipeline.stages:
                if name is not None and stage.name != name:
                    continue
                if stage.duration is not None:
                    out.append(stage.duration)
        return out
