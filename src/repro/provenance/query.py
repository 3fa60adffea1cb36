"""Root-cause queries over the happens-before graph.

The core primitive is the *most-constraining predecessor* walk: from
any event, follow the incoming edge whose source happened latest (ties
broken toward the most informative edge kind).  That edge is the reason
the event did not happen earlier, so iterating the walk back to the run
root yields a causal chain — "this task finished late because its
launch waited on a grant because the scheduler pass stalled because..."
— in which every hop is a typed, timestamped constraint.
"""

from __future__ import annotations

from .graph import ProvEdge, ProvEvent, ProvGraph

__all__ = [
    "chain_components",
    "last_constraint",
    "render_why",
    "resolve_target",
    "why_chain",
]

#: Tie-break preference among edges whose sources are simultaneous:
#: prefer the edge that *names a reason* (a wait) over structural glue.
KIND_PRIORITY: dict[str, int] = {
    "wait-on-store": 11,
    "rpc.queue": 10,
    "wait-on-grant": 10,
    "raptor.queue": 10,
    "rpc.wire": 9,
    "launch": 8,
    "raptor.dispatch": 8,
    "span": 6,
    "join": 5,
    "program": 4,
    "fault.window": 2,
    "run": 1,
}


#: Longest chain :func:`why_chain` walks: the guard against a cycle in a
#: malformed graph.
MAX_HOPS = 100000


def last_constraint(graph: ProvGraph, event: ProvEvent) -> ProvEdge | None:
    """The incoming edge that held ``event`` back the longest."""
    best: ProvEdge | None = None
    best_key: tuple[float, int, int] | None = None
    for edge in graph.in_edges(event):
        key = (edge.t_src, KIND_PRIORITY.get(edge.kind, 0), -edge.src)
        if best_key is None or key > best_key:
            best, best_key = edge, key
    return best


def why_chain(graph: ProvGraph, target: ProvEvent) -> list[ProvEdge]:
    """Most-constraining chain from ``target`` back toward the root.

    Returned target-first (``chain[0].dst == target.eid``); the walk
    stops at the unique in-degree-zero event (the run root on a valid
    graph) or after ``MAX_HOPS`` on a malformed one.
    """
    chain: list[ProvEdge] = []
    event = target
    while len(chain) < MAX_HOPS:
        edge = last_constraint(graph, event)
        if edge is None:
            break
        chain.append(edge)
        event = graph.event(edge.src)
    return chain


def resolve_target(graph: ProvGraph, token: str) -> ProvEvent | None:
    """Map a CLI token to the event whose lateness to explain.

    ``"run"`` resolves to the run end; a task uid to its root span's
    end; a numeric token to that span id's end; anything else to the
    end of the first span whose label contains the token.
    """
    if token == "run":
        return graph.end
    if token in graph.task_events:
        return graph.task_events[token][1]
    if token.isdigit():
        pair = graph.span_events.get(int(token))
        if pair is not None:
            return pair[1]
    for start, end in graph.span_events.values():  # in span-id order
        if token in start.label:
            return end
    return None


def chain_components(graph: ProvGraph, chain: list[ProvEdge]) -> list[str]:
    """Component tracks crossed, root-most first, first-touch order."""
    seen: dict[str, None] = {}
    for edge in reversed(chain):
        for eid in (edge.src, edge.dst):
            component = graph.event(eid).component
            if component and component not in ("run", "faults"):
                seen.setdefault(component, None)
    return list(seen)


def render_why(
    graph: ProvGraph, target: ProvEvent, chain: list[ProvEdge], top: int = 30
) -> str:
    """Human-readable root-cause chain, root first, target last.

    Long chains keep the ``top`` hops that cost the most time plus every
    hop carrying a fault annotation; elided stretches collapse into one
    ``...`` line so the output stays a screenful.
    """
    total = target.t - (graph.root.t if graph.root is not None else 0.0)
    lines = [
        f"why {target.label} (t={target.t:.2f}, "
        f"{len(chain)} hop(s), {total:.2f}s end-to-end)"
    ]
    if not chain:
        return lines[0]
    by_cost = sorted(
        range(len(chain)), key=lambda i: chain[i].duration, reverse=True
    )
    keep = set(by_cost[:top])
    for i, edge in enumerate(chain):
        if edge.attrs.get("faults"):
            keep.add(i)
    elided = 0
    elided_time = 0.0

    def flush_elision() -> None:
        nonlocal elided, elided_time
        if elided:
            lines.append(
                f"  ... {elided} quiet hop(s), {elided_time:.2f}s ..."
            )
            elided, elided_time = 0, 0.0

    for i in range(len(chain) - 1, -1, -1):
        edge = chain[i]
        if i not in keep:
            elided += 1
            elided_time += edge.duration
            continue
        flush_elision()
        src = graph.event(edge.src)
        dst = graph.event(edge.dst)
        note = ""
        faults = edge.attrs.get("faults")
        if faults:
            note = "  !! during " + ", ".join(faults)
        lines.append(
            f"  {edge.t_src:>10.2f} -> {edge.t_dst:<10.2f} "
            f"{edge.duration:>9.2f}s  {edge.kind:<14} "
            f"{src.label} -> {dst.label}{note}"
        )
    flush_elision()
    components = chain_components(graph, chain)
    if components:
        lines.append("components crossed: " + " -> ".join(components))
    return "\n".join(lines)
