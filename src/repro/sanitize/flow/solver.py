"""A small forward worklist dataflow solver over :mod:`.cfg` graphs.

The solver is rule-agnostic: a flow rule supplies its own lattice via
three callables —

``transfer(node, state) -> state``
    The effect of executing ``node`` on an entry state.

``edge_transfer(node, out_state, kind) -> state | None``
    Optional path-sensitivity hook: refine the outgoing state per edge
    kind (``true``/``false``/``return``/``exc``/…).  Returning ``None``
    kills the edge (nothing propagates).

``join(a, b) -> state``
    Merge states at control-flow joins.  Must be monotone (a union for
    every rule shipped here) so the fixpoint terminates.

States are compared with ``==`` — rules use hashable immutable values
(dicts of frozensets, frozensets of tuples) so equality is structural.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .cfg import CFG, Node

__all__ = ["solve_forward"]

Transfer = Callable[[Node, Any], Any]
EdgeTransfer = Callable[[Node, Any, str], Any]
Join = Callable[[Any, Any], Any]


def solve_forward(
    cfg: CFG,
    *,
    init: Any,
    transfer: Transfer,
    join: Join,
    edge_transfer: EdgeTransfer | None = None,
) -> dict[int, Any]:
    """Iterate to a fixpoint; returns the entry state of every node.

    Unreachable nodes are absent from the result.  A step budget is a
    backstop against a non-monotone rule looping forever: it scales
    with graph size and is far above any honest fixpoint.
    """
    states: dict[int, Any] = {cfg.entry: init}
    work: deque[int] = deque([cfg.entry])
    queued = {cfg.entry}
    budget = 200 * max(len(cfg.nodes), 1)
    steps = 0
    while work:
        steps += 1
        if steps > budget:  # pragma: no cover - defensive backstop
            raise RuntimeError(
                f"dataflow over {cfg.name!r} did not converge in {budget} steps"
            )
        index = work.popleft()
        queued.discard(index)
        node = cfg.nodes[index]
        out = transfer(node, states[index])
        for succ, kind in cfg.succ.get(index, ()):
            prop = edge_transfer(node, out, kind) if edge_transfer else out
            if prop is None:
                continue
            old = states.get(succ)
            merged = prop if old is None else join(old, prop)
            if old is None or merged != old:
                states[succ] = merged
                if succ not in queued:
                    queued.add(succ)
                    work.append(succ)
    return states
