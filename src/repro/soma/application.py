"""The *application* namespace: self-reported figures of merit.

Paper Sec 2.3.2: "the application may have useful custom information
to be monitored, i.e., the scientific rate-of-progress or
figure-of-merit self-reported by the application.  For example, a
molecular dynamics code might want to capture the atom-timesteps per
second ...  capturing this data typically requires application
instrumentation with SOMA's API".

This module provides that instrumentation path:

* :class:`ApplicationMetrics` — the in-address-space API an
  application task uses to record and publish figures of merit;
* :class:`InstrumentedModel` — a wrapper that gives any task model an
  ``ApplicationMetrics`` handle and publishes at task end (and
  optionally mid-run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from ..conduit import Node as ConduitNode
from ..rp.model import ExecutionContext, TaskModel, TaskResult
from ..sim.core import Event
from .namespaces import APPLICATION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rp.session import Session
    from .service import SomaConfig
    from .storage import NamespaceStore

__all__ = [
    "ApplicationMetrics",
    "InstrumentedModel",
    "figure_of_merit_series",
]


@dataclass(slots=True)
class MetricSample:
    """One self-reported observation."""

    time: float
    name: str
    value: float
    unit: str = ""


class ApplicationMetrics:
    """SOMA's application-facing instrumentation API.

    The application records named figures of merit; ``flush`` publishes
    everything recorded since the previous flush as one Conduit tree
    under ``APP/<task uid>/`` through a client of the deployment
    ``config`` describes.
    """

    def __init__(
        self, session: "Session", task_uid: str, config: "SomaConfig"
    ) -> None:
        self.session = session
        self.task_uid = task_uid
        self._client = config.make_client(
            session, name=f"app@{task_uid}", node=None
        )
        self._pending: list[MetricSample] = []
        self.published_samples = 0
        self._seq = 0

    def record(self, name: str, value: float, unit: str = "") -> None:
        """Record one figure-of-merit observation (no simulated cost)."""
        self._pending.append(
            MetricSample(
                time=self.session.env.now,
                name=name,
                value=float(value),
                unit=unit,
            )
        )

    def flush(self) -> Generator[Event, None, bool]:
        """Publish pending samples to the application namespace."""
        if not self._pending:
            return True
        tree = ConduitNode()
        for sample in self._pending:
            base = (
                f"APP/{self.task_uid}/{sample.name}/{self._seq:06d}"
            )
            self._seq += 1
            tree[f"{base}/time"] = round(sample.time, 6)
            tree[f"{base}/value"] = sample.value
            if sample.unit:
                tree[f"{base}/unit"] = sample.unit
        count = len(self._pending)
        self._pending.clear()
        ok = yield from self._client.publish(APPLICATION, tree)
        if ok:
            self.published_samples += count
        return ok


class InstrumentedModel(TaskModel):
    """Wrap a task model with SOMA application instrumentation.

    The inner model receives the metrics handle as
    ``ctx.task.description.metadata['app_metrics']`` before execution,
    records whatever it wants through it, and the wrapper flushes at
    task end.  Models that never touch the handle still publish one
    default figure of merit: their wall-clock rate of progress.
    """

    def __init__(
        self,
        session: "Session",
        config: "SomaConfig",
        inner: TaskModel,
        default_metric: str = "progress_rate",
    ) -> None:
        self.session = session
        self.config = config
        self.inner = inner
        self.default_metric = default_metric

    def execute(self, ctx: ExecutionContext):
        metrics = ApplicationMetrics(self.session, ctx.task.uid, self.config)
        ctx.task.description.metadata["app_metrics"] = metrics
        start = ctx.env.now
        result: TaskResult = yield from self.inner.execute(ctx)
        elapsed = ctx.env.now - start
        if metrics.published_samples == 0 and not metrics._pending:
            rate = 1.0 / elapsed if elapsed > 0 else 0.0
            metrics.record(self.default_metric, rate, unit="tasks/s")
        yield from metrics.flush()
        result.data["app_metrics_published"] = metrics.published_samples
        return result


def figure_of_merit_series(
    store: "NamespaceStore", task_uid: str, metric: str
) -> list[tuple[float, float]]:
    """(time, value) series of one metric for one task."""
    out: list[tuple[float, float]] = []
    for record in store:
        data = record.data
        path = f"APP/{task_uid}/{metric}"
        if path not in data:
            continue
        for _seq, sample_node in data[path].children():
            out.append(
                (
                    float(sample_node["time"]),
                    float(sample_node["value"]),
                )
            )
    return sorted(out)
