"""The Pilot entity: a placeholder for acquired computing resources."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.core import Environment, Event
from .description import PilotDescription
from .states import (
    PILOT_FINAL_STATES,
    InvalidTransition,
    PilotState,
    is_valid_transition,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..platform.batch import JobAllocation
    from ..platform.node import Node

__all__ = ["Pilot"]


class Pilot:
    """A pilot job: whole nodes acquired through the batch system.

    Node roles (paper Sec 3.1/3.2): *agent* nodes host the RP client,
    agent and the SOMA service + RP monitoring client; *service* nodes
    host extra SOMA service ranks; *compute* nodes run application
    tasks (and one hardware-monitor client each).
    """

    def __init__(
        self, env: Environment, uid: str, description: PilotDescription
    ) -> None:
        description.validate()
        self.env = env
        self.uid = uid
        self.description = description
        self.state = PilotState.NEW
        self.state_history: list[tuple[float, str]] = [(env.now, PilotState.NEW)]
        self.job: "JobAllocation | None" = None
        #: Node-role partition, filled at activation.
        self.agent_nodes: "list[Node]" = []
        self.service_nodes: "list[Node]" = []
        self.compute_nodes: "list[Node]" = []
        #: Fires when the pilot becomes active (agent bootstrapped).
        self.active: Event = env.event()
        #: Fires when the pilot reaches a final state.
        self.completed: Event = env.event()

    @property
    def nodes(self) -> "list[Node]":
        """All nodes of the allocation, agent nodes first."""
        return self.agent_nodes + self.service_nodes + self.compute_nodes

    @property
    def agent_node(self) -> "Node":
        if not self.agent_nodes:
            raise RuntimeError(f"{self.uid}: pilot not yet active")
        return self.agent_nodes[0]

    def advance(self, new_state: str) -> None:
        if not is_valid_transition(self.state, new_state, kind="pilot"):
            raise InvalidTransition(
                f"{self.uid}: illegal transition {self.state} -> {new_state}"
            )
        self.state = new_state
        self.state_history.append((self.env.now, new_state))
        if new_state == PilotState.PMGR_ACTIVE and not self.active.triggered:
            self.active.succeed(self)
        if new_state in PILOT_FINAL_STATES and not self.completed.triggered:
            self.completed.succeed(self)

    @property
    def is_final(self) -> bool:
        return self.state in PILOT_FINAL_STATES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pilot {self.uid} {self.state} nodes={len(self.nodes)}>"
