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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..conduit import Node as ConduitNode
from ..rp.model import ExecutionContext, RankProfile, TaskModel, TaskResult
from ..soma.namespaces import PERFORMANCE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rp.session import Session
    from ..soma.service import SomaConfig

__all__ = ["TAUWrappedModel", "profiles_to_conduit"]

#: Fractional runtime overhead of tau_exec sampling (well under the
#: few-percent TAU reports for sampling mode).
SAMPLING_OVERHEAD = 0.015

#: Serialized bytes per (rank, region) profile entry.
BYTES_PER_ENTRY = 48.0


def profiles_to_conduit(
    task_uid: str, profiles: list[RankProfile]
) -> ConduitNode:
    """Per-rank TAU profile tree, tagged with hostname and task id.

    The hostname tag and task identifier "allow for properly attributing
    the TAU profile to the correct heterogeneous workflow tasks".
    """
    tree = ConduitNode()
    for profile in profiles:
        if not profile.seconds_by_region:
            continue  # no leaves, so no (empty) rank node either
        rank = tree.fetch(f"TAU/{task_uid}/{profile.hostname}/rank{profile.rank:05d}")
        for region, seconds in profile.seconds_by_region.items():
            rank[region] = round(seconds, 6)
    return tree


class TAUWrappedModel(TaskModel):
    """``tau_exec``-style wrapper: run, sample, publish at exit."""

    def __init__(
        self,
        session: "Session",
        config: "SomaConfig",
        inner: TaskModel,
        sampling_overhead: float = SAMPLING_OVERHEAD,
    ) -> None:
        self.session = session
        self.config = config
        self.inner = inner
        self.sampling_overhead = sampling_overhead

    def execute(self, ctx: ExecutionContext):
        env = ctx.env
        start = env.now
        result: TaskResult = yield from self.inner.execute(ctx)
        elapsed = env.now - start
        # Sampling overhead: the signal-handler cost tau_exec adds.
        if self.sampling_overhead > 0 and elapsed > 0:
            yield env.timeout(elapsed * self.sampling_overhead)
        # Publish the profiles from the application's address space —
        # the client stub needs no resources of its own (Sec 2.2.1),
        # so no node is attached (no extra jitter charged).
        if result.rank_profiles:
            client = self.config.make_client(
                self.session, name=f"tau@{ctx.task.uid}", node=None
            )
            tree = profiles_to_conduit(ctx.task.uid, result.rank_profiles)
            yield from client.publish(PERFORMANCE, tree)
        return result
