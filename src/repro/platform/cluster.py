"""The full simulated machine: nodes + network + batch system."""

from __future__ import annotations

from ..sim.core import Environment
from .batch import BatchSystem
from .network import Network
from .node import Node
from .procfs import ProcFS
from .specs import ClusterSpec

__all__ = ["Cluster"]


class Cluster:
    """A simulated HPC platform.

    One of these stands in for Summit in every experiment: it owns the
    node objects, the shared interconnect, and the batch queue that
    grants the pilot job its allocation.
    """

    def __init__(self, env: Environment, spec: ClusterSpec) -> None:
        self.env = env
        self.spec = spec
        self.nodes: list[Node] = [
            Node(env, index, spec.node) for index in range(spec.nodes)
        ]
        self.network = Network(env, spec.network, spec.nodes)
        self.batch = BatchSystem(env, self.nodes)
        self._procfs = {node.name: ProcFS(node) for node in self.nodes}

    def procfs(self, node: Node) -> ProcFS:
        """The /proc view of ``node``."""
        return self._procfs[node.name]

    def node_by_name(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    @property
    def total_cores(self) -> int:
        return sum(node.total_cores for node in self.nodes)

    @property
    def total_gpus(self) -> int:
        return sum(node.total_gpus for node in self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster {self.spec.name} nodes={len(self.nodes)} "
            f"cores={self.total_cores} gpus={self.total_gpus}>"
        )
