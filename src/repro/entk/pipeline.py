"""EnTK Pipeline: an ordered chain of stages."""

from __future__ import annotations

from .stage import Stage

__all__ = ["Pipeline"]


class Pipeline:
    """Stages executed strictly in order; pipelines run concurrently.

    The paper uses EnTK "to schedule n number of phases in a row,
    within m number of concurrent pipelines" (Sec 3.2, Fig 3); a phase
    is four consecutive stages appended with :meth:`add_stage`.  The uid is
    minted, and an unnamed pipeline named after it, when
    :meth:`~repro.entk.appmanager.AppManager.run` receives it.
    """

    def __init__(self, name: str = "") -> None:
        self.uid = ""
        self.name = name
        self.stages: list[Stage] = []
        self.started_at: float | None = None
        self.finished_at: float | None = None

    def add_stage(self, stage: Stage) -> None:
        self.stages.append(stage)

    @property
    def duration(self) -> float | None:
        """End-to-end pipeline execution time (Figs 10/11 y-axis)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def num_tasks(self) -> int:
        return sum(len(s.task_descriptions) for s in self.stages)

    @property
    def succeeded(self) -> bool:
        return all(s.succeeded for s in self.stages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pipeline {self.name} stages={len(self.stages)}>"
