"""Progress-based execution of activities whose rate can change.

This is the numerical heart of the platform model.  An activity has a
fixed amount of *work*; its instantaneous rate depends on the set of
co-resident activities (memory-bandwidth contention on a node, link
sharing on the network).  Whenever membership changes, every activity's
remaining work is advanced at the old rate and its completion event is
re-scheduled at the new rate.

Two sharing disciplines are provided:

* :class:`FairShareChannel` — capacity split equally among active
  activities (network links).
* :class:`ContentionDomain` — each activity runs at
  ``1 / ((1 - m) + m * max(1, D))`` of nominal speed, where ``m`` is the
  activity's memory intensity and ``D`` the total relative bandwidth
  demand on the domain (compute nodes).  This reproduces the classic
  roofline-style slowdown of co-scheduled memory-bound ranks.

Cost model: a membership change settles and re-rates every co-resident
activity — that part is inherent to fair sharing — but the aggregate
terms (total weight, total demand) are computed once per change instead
of once per activity, and the pool re-arms a *single* tombstoned
completion timer at the earliest ETA instead of spawning one timer
process per activity.  A change therefore costs O(n) arithmetic and
O(log n) heap work, where the previous implementation cost O(n^2)
arithmetic plus n process spawns.
"""

from __future__ import annotations

import math

from ..sim.core import Environment, Event, Timeout

__all__ = ["Activity", "RatePool", "FairShareChannel", "ContentionDomain"]


class Activity:
    """One unit of rate-controlled work inside a :class:`RatePool`.

    Attributes
    ----------
    done:
        Event that fires when all work has been performed.  It carries
        no value, so a finished activity is freed by reference counting
        rather than left in a cycle for the cyclic GC.
    """

    __slots__ = (
        "pool",
        "work",
        "remaining",
        "weight",
        "demand",
        "mem_intensity",
        "rate",
        "rate_cap",
        "done",
        "finished_at",
        "_last_update",
        "on_end",
        "_ended",
    )

    def __init__(
        self,
        pool: "RatePool",
        work: float,
        weight: float = 1.0,
        demand: float = 0.0,
        mem_intensity: float = 0.0,
        rate_cap: float = math.inf,
    ) -> None:
        if work < 0:
            raise ValueError(f"negative work {work}")
        self.pool = pool
        self.work = float(work)
        self.remaining = float(work)
        self.weight = weight
        self.demand = demand
        self.mem_intensity = mem_intensity
        self.rate = 0.0
        self.rate_cap = rate_cap
        self.done: Event = pool.env.event()
        self.finished_at: float | None = None
        self._last_update = pool.env.now
        #: Callbacks invoked exactly once when the activity ends for
        #: any reason (completion, cancellation, node failure).
        self.on_end: list = []
        self._ended = False

    @property
    def progress(self) -> float:
        """Fraction of work completed so far (0..1), as of 'now'."""
        if self.work == 0:
            return 1.0
        remaining = self.remaining
        if self.finished_at is None and self.rate > 0:
            elapsed = self.pool.env.now - self._last_update
            remaining = max(0.0, remaining - self.rate * elapsed)
        return 1.0 - remaining / self.work

    def cancel(self) -> None:
        """Abort the activity; ``done`` never fires."""
        self.pool._remove(self, fire=False)

    def _run_on_end(self) -> None:
        if self._ended:
            return
        self._ended = True
        for callback in self.on_end:
            callback(self)


class RatePool:
    """Base class: a set of activities whose rates are recomputed jointly."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: Insertion-ordered set of in-flight activities (dict keys).
        self._active: dict[Activity, None] = {}
        #: Cumulative work delivered by this pool (for accounting).
        self.delivered = 0.0
        #: Global rate multiplier (fault injection: a slowed node or a
        #: degraded link runs every activity at a fraction of nominal).
        self.speed_factor = 1.0
        #: Running aggregates, maintained incrementally on membership
        #: change and recomputed exactly at every reschedule.
        self._total_weight = 0.0
        self._total_demand = 0.0
        #: The pool's single pending completion timer, if any.
        self._timer: Timeout | None = None

    # -- public API -----------------------------------------------------

    @property
    def active(self) -> list["Activity"]:
        """The in-flight activities, oldest first."""
        return list(self._active)

    def execute(
        self,
        work: float,
        weight: float = 1.0,
        demand: float = 0.0,
        mem_intensity: float = 0.0,
        rate_cap: float = math.inf,
    ) -> Activity:
        """Start an activity; returns it (wait on ``activity.done``)."""
        act = Activity(self, work, weight, demand, mem_intensity, rate_cap)
        self._settle()
        self._active[act] = None
        self._total_weight += act.weight
        self._total_demand += act.demand
        if act.remaining <= 0:
            self._finish(act)
        self._reschedule()
        return act

    @property
    def load(self) -> float:
        """Total demand currently placed on the pool."""
        return self._total_demand

    def set_speed_factor(self, factor: float) -> None:
        """Change the pool-wide rate multiplier, re-pacing in-flight work.

        Used by fault injection to slow a node (or a link) down and to
        restore it: remaining work is advanced at the old rate first, so
        the change is progress-preserving and fully deterministic.
        """
        if factor <= 0:
            raise ValueError(f"speed factor must be positive, got {factor}")
        self._settle()
        self.speed_factor = float(factor)
        self._reschedule()

    def rate_of(self, act: Activity) -> float:
        """Current instantaneous rate of ``act`` — overridden by pools."""
        raise NotImplementedError

    # -- internals --------------------------------------------------------

    def _settle(self) -> None:
        """Advance every active activity's remaining work to 'now'."""
        now = self.env.now
        for act in self._active:
            elapsed = now - act._last_update
            if elapsed > 0 and act.rate > 0:
                done_work = min(act.remaining, act.rate * elapsed)
                act.remaining -= done_work
                self.delivered += done_work
            act._last_update = now

    def _refresh_aggregates(self) -> None:
        """Recompute the running sums exactly (kills float drift)."""
        total_weight = 0.0
        total_demand = 0.0
        for act in self._active:
            total_weight += act.weight
            total_demand += act.demand
        self._total_weight = total_weight
        self._total_demand = total_demand

    def _reschedule(self) -> None:
        """Recompute all rates once and re-arm the pool's single timer.

        Every caller has settled the pool at this instant, so the work
        left on each activity is current.
        """
        self._refresh_aggregates()
        now = self.env.now
        finished: list[Activity] = []
        next_eta = math.inf
        for act in self._active:
            act.rate = self.rate_of(act)
            if act.remaining <= 1e-12:
                finished.append(act)
                continue
            if act.rate <= 0:
                continue  # stalled: no timer until conditions change
            eta = act.remaining / act.rate
            if now + eta <= now:
                # Remaining work is below float resolution of the
                # clock: it can never make representable progress.
                finished.append(act)
                continue
            if eta < next_eta:
                next_eta = eta
        if finished:
            for act in finished:
                self._finish(act)
            # Departures change rates for the survivors.
            self._reschedule()
        else:
            self._arm_timer(next_eta)

    def _arm_timer(self, eta: float) -> None:
        """Point the pool's single completion timer at ``eta`` from now.

        The superseded timer (if any) is tombstoned in the event heap
        rather than removed — O(1), and the kernel skips it when popped.
        """
        if self._timer is not None:
            self._timer.cancel_scheduled()
            self._timer = None
        if eta is not math.inf:
            timer = Timeout(self.env, eta)
            timer.callbacks.append(self._on_timer)
            self._timer = timer

    def _on_timer(self, _event: Event) -> None:
        """The earliest ETA elapsed: settle, complete, re-arm."""
        self._timer = None
        self._settle()
        finished = [
            act
            for act in self._active
            if act.remaining <= 1e-9 * max(1.0, act.work)
        ]
        for act in finished:
            act.remaining = 0.0
            self._finish(act)
        # Float drift may leave a sliver of work on the nearest
        # activity; _reschedule re-arms for the remainder (and treats
        # slivers below clock resolution as done).  Finishing takes no
        # time, so the settle above still holds.
        self._reschedule()

    def _finish(self, act: Activity) -> None:
        if act.finished_at is not None:
            return
        act.finished_at = self.env.now
        if act in self._active:
            del self._active[act]
            self._total_weight -= act.weight
            self._total_demand -= act.demand
        act._run_on_end()
        if not act.done.triggered:
            act.done.succeed()

    def fail_all(self, exc: BaseException) -> None:
        """Abort every active activity with ``exc`` (node failure).

        Waiters see the exception; activities nobody awaited yet fail
        silently (pre-defused), so a crash cannot take down the whole
        simulation from an unobserved event.
        """
        self._settle()
        victims = list(self._active)
        self._active.clear()
        self._total_weight = 0.0
        self._total_demand = 0.0
        self._arm_timer(math.inf)
        for act in victims:
            act.finished_at = self.env.now
            act._run_on_end()
            if not act.done.triggered:
                act.done.fail(exc)
                act.done.defuse()

    def _remove(self, act: Activity, fire: bool) -> None:
        self._settle()
        if act in self._active:
            del self._active[act]
            self._total_weight -= act.weight
            self._total_demand -= act.demand
        if act.finished_at is None:
            act.finished_at = self.env.now
        act._run_on_end()
        if fire and not act.done.triggered:
            act.done.succeed()
        self._reschedule()


class FairShareChannel(RatePool):
    """Capacity split equally among active activities, weighted.

    Used for network links: ``rate_i = capacity * w_i / sum(w)``.
    """

    def __init__(self, env: Environment, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        super().__init__(env)
        self.capacity = capacity

    def rate_of(self, act: Activity) -> float:
        total_weight = self._total_weight
        if total_weight <= 0:
            return 0.0
        return min(
            act.rate_cap,
            self.speed_factor * self.capacity * act.weight / total_weight,
        )

    def utilization(self) -> float:
        """1.0 while any transfer is in flight, else 0.0."""
        return 1.0 if self._active else 0.0


class ContentionDomain(RatePool):
    """Memory-bandwidth contention on one node.

    Each activity represents a group of ranks; ``demand`` is its total
    relative bandwidth demand (ranks × per-rank demand), and
    ``mem_intensity`` the fraction of its critical path that is
    memory-bound.  When the sum of demands exceeds the capacity, the
    memory-bound fraction stretches proportionally:

    ``slowdown = (1 - m) + m * max(1, D / capacity)``
    """

    def __init__(self, env: Environment, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        super().__init__(env)
        self.capacity = capacity

    def pressure(self) -> float:
        """Total demand relative to capacity (1.0 = saturated)."""
        return self.load / self.capacity

    def rate_of(self, act: Activity) -> float:
        overload = max(1.0, self._total_demand / self.capacity)
        slowdown = (1.0 - act.mem_intensity) + act.mem_intensity * overload
        return self.speed_factor * act.weight / slowdown
