"""EnTK Stage: a set of tasks with a barrier after them."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..rp.description import TaskDescription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rp.task import Task

__all__ = ["Stage"]


class Stage:
    """Tasks that may run concurrently; the stage ends when all do.

    Mirrors RADICAL-EnTK's Stage: "stages ... must be run in order"
    within a pipeline, with an implicit barrier between consecutive
    stages.  Like a pipeline's, the uid (and an unnamed stage's name)
    is set when the AppManager receives the pipeline.
    """

    def __init__(
        self,
        name: str = "",
        tasks: list[TaskDescription] | None = None,
    ) -> None:
        self.uid = ""
        self.name = name
        self.task_descriptions: list[TaskDescription] = list(tasks or [])
        #: Filled at runtime.
        self.tasks: "list[Task]" = []
        self.started_at: float | None = None
        self.finished_at: float | None = None

    @property
    def duration(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def succeeded(self) -> bool:
        return bool(self.tasks) and all(t.state == "DONE" for t in self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.name} tasks={len(self.task_descriptions)}>"
