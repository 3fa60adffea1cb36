"""The RP Session: shared context for one workflow run.

Owns the simulation environment (which mints the run's ids), the
simulated cluster, the log of every task transition and the profile
store over it, the RPC registry for service discovery, the tracer, the
SOMA clients the run built, and the run's random stream.  Every other
RP component receives the session and reaches shared state through
it — mirroring how RP threads a Session through its component tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..messaging.rpc import RPCRegistry
from ..platform.cluster import Cluster
from ..platform.specs import ClusterSpec, summit_like
from ..sim.core import Environment
from ..sim.trace import Tracer
from ..telemetry.spans import Telemetry
from .config import DEFAULT_RP_CONFIG, RPConfig
from .profiler import ProfileStore, TransitionLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..soma.client import SomaClient

__all__ = ["Session"]


class Session:
    """One RP session == one workflow run on one simulated machine."""

    def __init__(
        self,
        cluster_spec: ClusterSpec | None = None,
        config: RPConfig | None = None,
        seed: int = 42,
    ) -> None:
        self.seed = seed
        self.env = Environment()
        self.cluster = Cluster(self.env, cluster_spec or summit_like(8))
        self.config = config or DEFAULT_RP_CONFIG
        self.rng = np.random.default_rng(seed)
        self.tracer = Tracer(self.env)
        # Always present, switched by ``observability``; when disabled
        # every operation is a no-op and the kernel never sees it
        # (env._telemetry stays None).
        self.telemetry = Telemetry(self.env)
        self.telemetry.tracer = self.tracer
        #: Every task transition of the run, one row each; the tasks and
        #: the profile store hold row ids, the tracer its traced rows.
        self.transitions = TransitionLog(self.tracer)
        self.profiles = ProfileStore(
            self.env,
            self.transitions,
            write_time=self.config.profile_write_time,
            read_time_per_record=self.config.profile_read_per_record,
            read_time_base=self.config.profile_read_base,
            read_max_records=self.config.profile_read_max_records,
        )
        self.rpc_registry = RPCRegistry(self.env)
        #: Every SOMA client built for this run
        #: (:meth:`~repro.soma.service.SomaConfig.make_client`).
        self.soma_clients: "list[SomaClient]" = []
        self.closed = False

    def new_uid(self, prefix: str) -> str:
        """The run's uids per prefix: task.000000, pilot.0000, ..."""
        width = 6 if prefix == "task" else 4
        return f"{prefix}.{self.env.new_id(prefix):0{width}d}"

    def stable_rng(self, tag: str) -> np.random.Generator:
        """A generator seeded from (session seed, tag).

        Task models draw their run-to-run noise from a stable stream
        keyed by the task's name, so two runs of the same workload
        under different monitoring configurations see *identical* task
        durations (common random numbers) and config comparisons are
        paired rather than noise-dominated.
        """
        import zlib

        digest = zlib.crc32(f"{self.seed}:{tag}".encode())
        return np.random.default_rng(digest)

    def jitter(self, nominal: float) -> float:
        """Apply the configured uniform jitter to an overhead value."""
        j = self.config.overhead_jitter
        if j <= 0 or nominal <= 0:
            return nominal
        return float(nominal * self.rng.uniform(1.0 - j, 1.0 + j))

    def close(self) -> None:
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Session seed={self.seed} t={self.env.now:.1f}>"
