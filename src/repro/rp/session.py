"""The RP Session: shared context for one workflow run.

Owns the simulation environment, the simulated cluster, uid generation,
the profile store, the RPC registry for service discovery, the tracer,
and the run's random stream.  Every other RP component receives the
session and reaches shared state through it — mirroring how RP threads
a Session through its component tree.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..messaging.rpc import RPCRegistry
from ..platform.cluster import Cluster
from ..platform.specs import ClusterSpec, summit_like
from ..sim.core import Environment
from ..sim.trace import Tracer
from ..telemetry.spans import Telemetry
from .config import DEFAULT_RP_CONFIG, RPConfig
from .profiler import ProfileStore

__all__ = ["Session"]


class Session:
    """One RP session == one workflow run on one simulated machine."""

    def __init__(
        self,
        env: Environment | None = None,
        cluster: Cluster | None = None,
        cluster_spec: ClusterSpec | None = None,
        config: RPConfig | None = None,
        seed: int = 42,
        trace: bool = True,
        telemetry: bool | None = None,
    ) -> None:
        self.seed = seed
        self.env = env or Environment()
        if cluster is None:
            cluster = Cluster(self.env, cluster_spec or summit_like(8))
        self.cluster = cluster
        self.config = config or DEFAULT_RP_CONFIG
        self.rng = np.random.default_rng(seed)
        self.tracer = Tracer(self.env, enabled=trace)
        # Always present; when disabled every operation is a no-op and
        # the kernel never sees it (env._telemetry stays None).
        self.telemetry = Telemetry(self.env, enabled=telemetry)
        self.telemetry.tracer = self.tracer
        self.profiles = ProfileStore(
            self.env,
            write_time=self.config.profile_write_time,
            read_time_per_record=self.config.profile_read_per_record,
            read_time_base=self.config.profile_read_base,
            read_max_records=self.config.profile_read_max_records,
        )
        self.rpc_registry = RPCRegistry(self.env)
        self._uid_counters: dict[str, itertools.count] = {}
        self.closed = False

    def new_uid(self, prefix: str) -> str:
        """Monotonic uids per prefix: task.000000, pilot.0000, ..."""
        counter = self._uid_counters.get(prefix)
        if counter is None:
            counter = itertools.count()
            self._uid_counters[prefix] = counter
        width = 6 if prefix == "task" else 4
        return f"{prefix}.{next(counter):0{width}d}"

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
