"""The TAU performance plugin for SOMA (paper Sec 2.3.2, Sec 3.1).

"Traditional sources of performance information, such as MPI counters
and application profiles, are captured by integrating the TAU
performance system with the application.  ...  While the plugin runs in
the application's address space, it creates a separate client object
and connects to the SOMA instances reserved for monitoring the
performance namespace."

:class:`TAUWrappedModel` is the simulated analogue of ``tau_exec``: it
wraps another task model, adds a small sampling overhead, and at task
end publishes the model's per-rank profiles — tagged with hostname and
task identifier, the two additions the paper made for heterogeneous
workflows — to the *performance* namespace.

Each rank's profile is one row (:mod:`repro.conduit.rows`) under
``TAU/<task uid>/<host>/rank<rank:05d>``, its leaves the profile's
region names: a reader gets back the tree of every rank, merged under
the task and host.  Ranks with the same regions share one schema per
publish.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..conduit.rows import Row, Schema
from ..rp.model import ExecutionContext, RankProfile, TaskModel, TaskResult
from ..soma.namespaces import PERFORMANCE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rp.session import Session
    from ..soma.service import SomaConfig

__all__ = ["TAUWrappedModel", "profile_rows"]

#: Fractional runtime overhead of tau_exec sampling (well under the
#: few-percent TAU reports for sampling mode).
SAMPLING_OVERHEAD = 0.015


def profile_rows(task_uid: str, profiles: list[RankProfile]) -> list[Row]:
    """Per-rank TAU profile rows, tagged with hostname and task id.

    The hostname tag and task identifier "allow for properly attributing
    the TAU profile to the correct heterogeneous workflow tasks".
    """
    schemas: dict[tuple[str, ...], Schema] = {}
    rows: list[Row] = []
    for profile in profiles:
        regions = profile.seconds_by_region
        if not regions:
            continue  # no leaves, so no (empty) rank node either
        names = tuple(regions)
        schema = schemas.get(names)
        if schema is None:
            schema = schemas[names] = Schema("TAU", names)
        rows.append(
            (
                schema,
                f"{task_uid}/{profile.hostname}/rank{profile.rank:05d}",
                tuple([round(seconds, 6) for seconds in regions.values()]),
            )
        )
    return rows


class TAUWrappedModel(TaskModel):
    """``tau_exec``-style wrapper: run, sample, publish at exit."""

    def __init__(
        self,
        session: "Session",
        config: "SomaConfig",
        inner: TaskModel,
    ) -> None:
        self.session = session
        self.config = config
        self.inner = inner

    def execute(self, ctx: ExecutionContext):
        env = ctx.env
        start = env.now
        result: TaskResult = yield from self.inner.execute(ctx)
        elapsed = env.now - start
        # Sampling overhead: the signal-handler cost tau_exec adds.
        if elapsed > 0:
            yield env.timeout(elapsed * SAMPLING_OVERHEAD)
        # Publish the profiles from the application's address space —
        # the client stub needs no resources of its own (Sec 2.2.1),
        # so no node is attached (no extra jitter charged).
        if result.rank_profiles:
            client = self.config.make_client(
                self.session, name=f"tau@{ctx.task.uid}", node=None
            )
            rows = profile_rows(ctx.task.uid, result.rank_profiles)
            yield from client.publish(PERFORMANCE, rows)
        return result
