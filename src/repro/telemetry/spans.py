"""Causal span tracing for the simulated stack.

A :class:`Span` is a named interval of *simulated* time attributed to a
component track (``entk``, ``rp-client``, ``rp-agent``, ``soma-client``,
``soma-service``, ...).  Spans form trees: every span except a trace
root has a parent, and one task's lifecycle — EnTK stage → RP client
feed → agent scheduling/execution → SOMA publish → RPC serve — is a
single causal tree stitched across processes and components.

Context propagates three ways, mirroring how the real stack carries
OpenTelemetry-style baggage:

* **ambient**: each kernel :class:`~repro.sim.core.Process` carries a
  stack of active :class:`SpanContext` objects; a freshly spawned
  process inherits the creator's innermost context (the kernel calls
  :meth:`Telemetry.on_process_spawn` from ``Process.__init__``);
* **envelopes**: messages, RPC requests and raptor function calls carry
  an explicit ``ctx`` field stamped at send time and consumed by the
  receiving side, crossing queues and simulated wires;
* **bindings**: long-lived entities (task uids) are bound to a context
  so later phases in *other* processes (the agent scheduler admitting a
  task minutes after the client created it) can re-join the tree.

The hard contract — enforced by the differential regression battery —
is **zero perturbation**: telemetry performs host-memory bookkeeping
keyed off ``env.now`` only.  It schedules no events, draws no random
numbers, and adds no timeouts, so the simulated event stream, all
result digests, and every kernel counter are byte-identical with
telemetry on or off.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from ..sim.core import keep_hub, switches

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import ContextManager

    from ..sim.core import Environment, Process
    from ..sim.trace import Tracer

__all__ = [
    "SpanContext",
    "Span",
    "Telemetry",
]


class _NullSpanManager:
    """Shared do-nothing ``with`` target for disabled hubs."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpanManager()


@dataclass(frozen=True, slots=True)
class SpanContext:
    """The propagatable identity of one span: (trace, span) ids."""

    trace_id: int
    span_id: int


class Span:
    """One named interval of simulated time on a component track."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "component",
        "start",
        "end",
        "attributes",
        "_stack",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        name: str,
        component: str,
        start: float,
        attributes: dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.component = component
        self.start = start
        self.end: float | None = None
        self.attributes = attributes
        #: The ambient stack this span was activated on (None if not
        #: activated); lets end_span pop from the right stack even when
        #: the span closes in a different process than it opened in.
        self._stack: list[SpanContext] | None = None

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def closed(self) -> bool:
        return self.end is not None

    def duration(self, now: float | None = None) -> float:
        """Span extent; open spans are clamped to ``now`` (read-only)."""
        if self.end is not None:
            return self.end - self.start
        if now is None:
            return 0.0
        return max(0.0, now - self.start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"..{self.end:.6f}" if self.end is not None else "..open"
        return (
            f"<Span {self.component}:{self.name} "
            f"t={self.start:.6f}{state} id={self.span_id}>"
        )


class Telemetry:
    """The per-run span hub: creates, activates, and closes spans.

    One hub per :class:`~repro.sim.core.Environment`; when enabled it
    installs itself as ``env._telemetry`` so the kernel forwards
    process spawn/exit notifications (ambient-context inheritance and
    cleanup).  A disabled hub never touches the environment and every
    operation on it is a cheap no-op, so call sites need no guards.
    ``enabled=None`` takes the telemetry switch of
    :func:`~repro.sim.core.switches`; an enabled hub also captures
    provenance when the provenance switch is on.

    Ids are minted from per-hub monotonic counters — never from
    ``uuid``/``random`` — so two runs with the same seed produce
    identical span ids and the exports diff cleanly.
    """

    def __init__(self, env: "Environment", enabled: bool | None = None) -> None:
        self.env = env
        switched = switches()
        if enabled is None:
            enabled = switched.telemetry
        self.enabled = bool(enabled)
        #: Every span ever started, in creation order.
        self.spans: list[Span] = []
        self._next_trace = 0
        self._next_span = 0
        self._open: dict[int, Span] = {}
        #: Ambient context stacks: per-process, plus one for code
        #: running outside any process (workflow setup).
        self._ambient: "dict[Process, list[SpanContext]]" = {}
        self._global: list[SpanContext] = []
        #: Durable bindings: entity uid -> context (task lifecycles).
        self._bindings: dict[str, SpanContext] = {}
        # Bookkeeping the property tests pin down.
        self.spans_started = 0
        self.spans_closed = 0
        self.double_closes = 0
        #: The run's point-event log, set by the owning
        #: :class:`~repro.rp.session.Session`; ``None`` on a hub built
        #: without one.  Exporters read it after the run.
        self.tracer: "Tracer | None" = None
        #: Optional provenance capture riding this hub (same contract:
        #: host-memory bookkeeping only, never a kernel event).
        self.provenance = None
        if self.enabled:
            env._telemetry = self
            keep_hub(self)
            if switched.provenance:
                from ..provenance import ProvenanceCapture

                self.provenance = ProvenanceCapture(self)

    # -- ambient context ----------------------------------------------

    def _stack(self) -> list[SpanContext]:
        proc = self.env.active_process
        if proc is None:
            return self._global
        stack = self._ambient.get(proc)
        if stack is None:
            stack = []
            self._ambient[proc] = stack
        return stack

    def current(self) -> SpanContext | None:
        """The innermost active context of the running process."""
        if not self.enabled:
            return None
        proc = self.env.active_process
        stack = self._ambient.get(proc) if proc is not None else self._global
        if stack:
            return stack[-1]
        return None

    @contextmanager
    def use(self, ctx: SpanContext | None) -> Iterator[None]:
        """Temporarily make ``ctx`` the ambient context (no new span)."""
        if not self.enabled or ctx is None:
            yield
            return
        stack = self._stack()
        stack.append(ctx)
        try:
            yield
        finally:
            try:
                stack.remove(ctx)
            except ValueError:  # pragma: no cover - defensive
                pass

    # -- kernel hooks (called by sim.core when enabled) ----------------

    def on_process_spawn(self, process: "Process") -> None:
        """Inherit the creator's innermost context into a new process."""
        ctx = self.current()
        if ctx is not None:
            self._ambient[process] = [ctx]

    def on_process_exit(self, process: "Process") -> None:
        """Drop the ambient stack of a terminated process."""
        self._ambient.pop(process, None)

    # -- span lifecycle ------------------------------------------------

    def start_span(
        self,
        name: str,
        component: str,
        parent: "SpanContext | Span | None" = None,
        activate: bool = False,
        **attributes: Any,
    ) -> Span | None:
        """Open a span at ``env.now``; returns None when disabled.

        ``parent=None`` adopts the ambient context; with no ambient
        context either, the span roots a fresh trace.  ``activate``
        pushes the span's context onto the current ambient stack so
        nested spans (and spawned processes) parent into it.
        """
        if not self.enabled:
            return None
        if isinstance(parent, Span):
            parent = parent.context
        if parent is None:
            parent = self.current()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            self._next_trace += 1
            trace_id = self._next_trace
            parent_id = None
        self._next_span += 1
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span,
            parent_id=parent_id,
            name=name,
            component=component,
            start=self.env.now,
            attributes=attributes,
        )
        self.spans.append(span)
        self._open[span.span_id] = span
        self.spans_started += 1
        if activate:
            stack = self._stack()
            stack.append(span.context)
            span._stack = stack
        return span

    def end_span(self, span: Span | None, **attributes: Any) -> None:
        """Close a span at ``env.now``.  Closing twice is counted, not
        applied — the property battery asserts ``double_closes == 0``
        over every instrumented code path."""
        if span is None or not self.enabled:
            return
        if span.end is not None:
            self.double_closes += 1
            return
        span.end = self.env.now
        if attributes:
            span.attributes.update(attributes)
        self._open.pop(span.span_id, None)
        self.spans_closed += 1
        stack, span._stack = span._stack, None
        if stack is not None:
            ctx = span.context
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] == ctx:
                    del stack[index]
                    break

    def span(
        self,
        name: str,
        component: str,
        parent: "SpanContext | Span | None" = None,
        **attributes: Any,
    ) -> "ContextManager[Span | None]":
        """Open an *activated* span for the duration of a with-block.

        Safe around kernel yields: the with-block lives in one process
        frame, and generator ``finally`` blocks run when the kernel
        throws :class:`~repro.sim.core.Interrupt`, so the span closes
        exactly once on success, failure, and cancellation alike.
        Disabled hubs return a shared no-op manager — call sites on the
        simulation hot path pay one method call and nothing else.
        """
        if not self.enabled:
            return _NULL_SPAN
        return self._span_cm(name, component, parent, attributes)

    @contextmanager
    def _span_cm(
        self,
        name: str,
        component: str,
        parent: "SpanContext | Span | None",
        attributes: dict[str, Any],
    ) -> Iterator[Span | None]:
        span = self.start_span(
            name, component, parent=parent, activate=True, **attributes
        )
        try:
            yield span
        finally:
            self.end_span(span)

    # -- bindings ------------------------------------------------------

    def bind(self, uid: str, ctx: "SpanContext | Span | None") -> None:
        """Durably associate an entity uid with a context."""
        if not self.enabled or ctx is None:
            return
        if isinstance(ctx, Span):
            ctx = ctx.context
        self._bindings[uid] = ctx

    def binding(self, uid: str) -> SpanContext | None:
        return self._bindings.get(uid)

    def unbind(self, uid: str) -> None:
        self._bindings.pop(uid, None)

    # -- introspection -------------------------------------------------

    def open_spans(self) -> list[Span]:
        """Spans started but not yet closed, in creation order."""
        return [span for span in self.spans if span.end is None]

    def trace_ids(self) -> list[int]:
        """Distinct trace ids in first-seen order."""
        seen: dict[int, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def counters(self) -> dict[str, int]:
        """Bookkeeping snapshot (all host-side; never sim state)."""
        return {
            "spans_started": self.spans_started,
            "spans_closed": self.spans_closed,
            "open_spans": len(self._open),
            "double_closes": self.double_closes,
            "traces": len(self.trace_ids()),
        }
