"""Runtime sanitizers for the discrete-event kernel.

The static half of the determinism story lives in
:mod:`repro.sanitize.simlint`; this module is the dynamic half.  When an
:class:`~repro.sim.core.Environment` is built with ``sanitize=True`` (or
under ``observability(sanitize=True)``, or with ``REPRO_SANITIZE=1``
outside any scope), the kernel attaches a
:class:`KernelSanitizer` that rides the existing kernel-counter hooks
and watches four lifecycle invariants no experiment should violate:

* **event leaks** — events still sitting in the heap at teardown were
  scheduled but never executed: either the run was abandoned early or a
  process keeps arming timers nobody consumes;
* **deadlocks** — live processes with an empty (or unreachable) event
  heap: nothing can ever wake them, so the await site of each blocked
  process is reported;
* **resource leaks** — a :class:`~repro.sim.resources.Request` that was
  granted and never released when its owning process terminated;
* **shared-dict races** — for opted-in :class:`SharedDict` mappings, a
  process that reads a key, yields (losing atomicity), and then writes
  the key after *another* process wrote it in between — the classic
  lost-update interleaving that makes runs order-sensitive.

Resource leaks and shared-dict races are *spontaneous*: they are
recorded the instant they happen (and mirrored into a module-level
registry so a test harness can assert the whole suite stayed clean).
Event leaks and deadlocks are *teardown* checks, produced by
:meth:`Environment.sanitize_check` once the caller declares the run
over — mid-run, a scheduled future event or a parked process is just a
simulation in progress, not a bug.

Every finding carries the owning process's name and the source site
(``file.py:line``) captured from the generator frame at the moment the
hazard was created, so reports point at code, not at kernel internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, MutableMapping

from .core import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment, Event, Process
    from .resources import Request

__all__ = [
    "SanitizerError",
    "SanitizerFinding",
    "KernelSanitizer",
    "SharedDict",
    "drain_spontaneous_findings",
    "record_spontaneous_finding",
]


class SanitizerError(SimulationError):
    """Raised by a strict :meth:`Environment.sanitize_check`."""

    def __init__(self, findings: list["SanitizerFinding"]) -> None:
        lines = [f"{len(findings)} sanitizer finding(s):"]
        lines.extend(f"  - {finding.format()}" for finding in findings)
        super().__init__("\n".join(lines))
        self.findings = findings


@dataclass(frozen=True, slots=True)
class SanitizerFinding:
    """One detected lifecycle/determinism hazard."""

    #: "event-leak" | "deadlock" | "resource-leak" | "shared-dict-race"
    kind: str
    #: Name of the offending process (None if outside any process).
    process: str | None
    #: "file.py:line" where the hazard was created, if known.
    site: str | None
    #: Human-readable description.
    detail: str
    #: Simulated time the finding was produced.
    time: float

    def format(self) -> str:
        where = f" [{self.site}]" if self.site else ""
        who = self.process or "<no process>"
        return f"{self.kind}: {who}{where} at t={self.time:g}: {self.detail}"


#: Spontaneous findings from *every* sanitized environment, in creation
#: order.  A test suite drains this between tests to assert that no run
#: leaked a resource or raced on a shared dict, without having to reach
#: into each environment a test happened to build.
_SPONTANEOUS: list[SanitizerFinding] = []


def drain_spontaneous_findings() -> list[SanitizerFinding]:
    """Return and clear the global spontaneous-finding registry."""
    global _SPONTANEOUS
    drained, _SPONTANEOUS = _SPONTANEOUS, []
    return drained


def record_spontaneous_finding(finding: SanitizerFinding) -> None:
    """Register a finding produced outside the kernel hooks.

    Post-hoc checkers (e.g. the provenance-graph validators) use this to
    surface their violations through the same registry the test suite's
    zero-findings guard already drains.
    """
    _SPONTANEOUS.append(finding)


class KernelSanitizer:
    """Lifecycle watcher attached to one :class:`Environment`.

    All hooks are O(1) dict/set operations so the sanitizer can stay on
    for the perf-regression suite without distorting its baselines.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Spontaneous findings recorded as they happen.
        self.findings: list[SanitizerFinding] = []
        #: eid -> (event, process name, site) for scheduled, unconsumed events.
        self._live_events: dict[int, tuple["Event", str | None, str | None]] = {}
        #: Live (started, not yet terminated) processes.
        self._live_procs: set["Process"] = set()
        #: Pending (not yet granted) request -> creation site.
        self._pending_requests: dict["Request", str | None] = {}
        #: proc -> {granted request -> creation site}.
        self._held: dict["Process", dict["Request", str | None]] = {}

    # -- site capture ---------------------------------------------------

    def current_site(self) -> tuple[str | None, str | None]:
        """(process name, "file:line") of the code running right now."""
        proc = self.env.active_process
        if proc is None:
            return None, None
        frame = proc._generator.gi_frame
        if frame is None:
            return proc.name, None
        return proc.name, f"{frame.f_code.co_filename}:{frame.f_lineno}"

    @staticmethod
    def _suspend_site(proc: "Process") -> str | None:
        """Where a parked process is suspended (its await site)."""
        frame = getattr(proc._generator, "gi_frame", None)
        if frame is None:
            return None
        return f"{frame.f_code.co_filename}:{frame.f_lineno}"

    def _record(self, finding: SanitizerFinding) -> None:
        self.findings.append(finding)
        _SPONTANEOUS.append(finding)

    # -- kernel hooks (called from core.py / resources.py) ---------------

    def on_schedule(self, eid: int, event: "Event") -> None:
        name, site = self.current_site()
        self._live_events[eid] = (event, name, site)

    def on_consume(self, eid: int) -> None:
        self._live_events.pop(eid, None)

    def on_process_start(self, proc: "Process") -> None:
        self._live_procs.add(proc)

    def on_process_exit(self, proc: "Process") -> None:
        self._live_procs.discard(proc)
        held = self._held.pop(proc, None)
        if held:
            for request, site in held.items():
                self._record(
                    SanitizerFinding(
                        kind="resource-leak",
                        process=proc.name,
                        site=site,
                        detail=(
                            f"process terminated still holding a slot of "
                            f"{type(request.resource).__name__} (capacity "
                            f"{request.resource.capacity}) requested here — "
                            "use `with resource.request() as req:` or "
                            "release in a finally block"
                        ),
                        time=self.env.now,
                    )
                )

    def on_request(self, request: "Request") -> None:
        _, site = self.current_site()
        self._pending_requests[request] = site

    def on_grant(self, request: "Request") -> None:
        site = self._pending_requests.pop(request, None)
        proc = request.proc
        if proc is None:
            return
        self._held.setdefault(proc, {})[request] = site

    def on_release(self, request: "Request") -> None:
        self._pending_requests.pop(request, None)
        proc = request.proc
        if proc is not None:
            held = self._held.get(proc)
            if held is not None:
                held.pop(request, None)

    # -- teardown analysis ------------------------------------------------

    def blocked_processes(self) -> list["Process"]:
        """Live (not yet terminated) processes, sorted by name."""
        return sorted(self._live_procs, key=lambda p: p.name)

    def check(self) -> list[SanitizerFinding]:
        """Teardown report: spontaneous findings + leaks + deadlocks."""
        findings = list(self.findings)

        leaked = [
            entry
            for entry in self._live_events.values()
            if entry[0].callbacks is not None  # tombstones are deliberate
        ]
        for event, name, site in leaked:
            findings.append(
                SanitizerFinding(
                    kind="event-leak",
                    process=name,
                    site=site,
                    detail=(
                        f"{type(event).__name__} scheduled here was never "
                        "executed or cancelled before teardown"
                    ),
                    time=self.env.now,
                )
            )

        # A parked process is deadlocked only if the heap holds nothing
        # that could still run: with live events pending, the sim merely
        # stopped early.
        if not leaked:
            for proc in self.blocked_processes():
                target = proc.target
                findings.append(
                    SanitizerFinding(
                        kind="deadlock",
                        process=proc.name,
                        site=self._suspend_site(proc),
                        detail=(
                            "process is blocked awaiting "
                            f"{target!r} with an empty event heap — "
                            "nothing can ever wake it"
                        ),
                        time=self.env.now,
                    )
                )
        return findings


class SharedDict(MutableMapping):
    """A dict opted in to cross-process write-between-yields detection.

    Subsystems whose state is mutated by several processes (the RP
    executor's task-process table, the SOMA service's per-namespace
    instance maps) register their mapping via
    :meth:`Environment.shared_dict`.  Every read records ``(process,
    key, version)``; a later write by the same process detects whether a
    *different* process bumped the key's version in between — which can
    only happen across a ``yield``, since processes are atomic between
    yields.  That interleaving is a lost update: the writer computed its
    value from a stale read, and which value survives depends on event
    ordering.

    With the sanitizer off the wrapper degrades to plain dict behaviour
    (``Environment.shared_dict`` returns a real dict in that case, so
    production runs pay nothing).
    """

    __slots__ = ("env", "name", "_data", "_versions", "_reads")

    def __init__(self, env: "Environment", name: str) -> None:
        self.env = env
        self.name = name
        self._data: dict[Any, Any] = {}
        #: key -> (version, writer process name, write site)
        self._versions: dict[Any, tuple[int, str | None, str | None]] = {}
        #: proc -> {key -> version seen at last read}
        self._reads: dict["Process", dict[Any, int]] = {}

    def _sanitizer(self) -> KernelSanitizer | None:
        return self.env._sanitizer

    def __getitem__(self, key: Any) -> Any:
        value = self._data[key]
        san = self._sanitizer()
        if san is not None:
            proc = self.env.active_process
            if proc is not None:
                version, _, _ = self._versions.get(key, (0, None, None))
                self._reads.setdefault(proc, {})[key] = version
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        san = self._sanitizer()
        if san is not None:
            proc = self.env.active_process
            version, writer, write_site = self._versions.get(key, (0, None, None))
            if proc is not None:
                seen = self._reads.get(proc, {}).get(key)
                if (
                    seen is not None
                    and version > seen
                    and writer is not None
                    and writer != proc.name
                ):
                    _, site = san.current_site()
                    san._record(
                        SanitizerFinding(
                            kind="shared-dict-race",
                            process=proc.name,
                            site=site,
                            detail=(
                                f"lost update on {self.name!r}[{key!r}]: value "
                                f"read at version {seen} was overwritten by "
                                f"process {writer!r} [{write_site}] before "
                                "this write — re-read after yielding or "
                                "serialize writers"
                            ),
                            time=self.env.now,
                        )
                    )
            name, site = san.current_site()
            self._versions[key] = (version + 1, name, site)
            if proc is not None:
                # Our own write implies knowledge of the new version.
                self._reads.setdefault(proc, {})[key] = version + 1
        self._data[key] = value

    def __delitem__(self, key: Any) -> None:
        del self._data[key]
        self._versions.pop(key, None)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedDict({self.name!r}, {self._data!r})"
