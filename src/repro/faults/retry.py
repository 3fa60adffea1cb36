"""Bounded retry with deterministic exponential backoff.

The robustness counterpart of the fault model: every RPC-shaped call in
the stack (SOMA publishes/queries, RP profile writes) can be wrapped in
a :class:`RetryPolicy` that retries *transient* failures — timeouts,
unavailable services — a bounded number of times, within a per-call
deadline, with exponential backoff whose jitter is drawn from the sim
RNG so two runs with the same seed retry at identical instants.

Design constraints (enforced by the property tests):

* the number of attempts never exceeds ``max_attempts``;
* total time spent (attempts + backoff) never exceeds ``deadline``;
* the backoff schedule is monotone non-decreasing and capped at
  ``max_delay``;
* identical RNG seeds yield identical schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Generator

from ..sim.core import Environment, Event
from ..sim.events import TimeoutExpired, with_timeout
from ..messaging.protocol import RPCError, RPCTimeout, ServiceUnavailable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["RetryPolicy", "RetryExhausted", "TRANSIENT_ERRORS"]

#: Failure classes a retry policy considers transient by default.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    RPCTimeout,
    ServiceUnavailable,
    TimeoutExpired,
)


class RetryExhausted(RPCError):
    """All attempts failed (or the deadline ran out).

    Subclasses :class:`RPCError` so existing ``except RPCError``
    degradation paths treat an exhausted retry like any other failed
    call.  ``last_error`` holds the failure of the final attempt.
    """

    def __init__(
        self, message: str, attempts: int, last_error: BaseException | None
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded attempts + exponential backoff + per-call deadline."""

    #: Total attempts, including the first one (>= 1).
    max_attempts: int = 4
    #: Backoff before the first retry, in simulated seconds.
    base_delay: float = 0.5
    #: Growth factor between consecutive backoffs (>= 1).
    multiplier: float = 2.0
    #: Upper bound on any single backoff delay.
    max_delay: float = 30.0
    #: Jitter fraction: each delay is stretched by up to ``jitter`` of
    #: itself, drawn deterministically from the caller's sim RNG.
    jitter: float = 0.1
    #: Wall-clock budget for the whole call (attempts + backoff), or
    #: None for unbounded.
    deadline: float | None = 60.0
    #: Budget for a single attempt, or None to rely on the deadline.
    timeout: float | None = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    def with_updates(self, **kwargs: Any) -> "RetryPolicy":
        return replace(self, **kwargs)

    # -- schedule -----------------------------------------------------

    def schedule(
        self, rng: "np.random.Generator | None" = None
    ) -> tuple[float, ...]:
        """The backoff delays between consecutive attempts.

        Returns ``max_attempts - 1`` delays.  Jitter is additive-upward
        and the running maximum is taken, so the schedule is monotone
        non-decreasing regardless of the draws; every delay is capped
        at ``max_delay``.  With the same RNG state the schedule is
        bit-identical.
        """
        delays: list[float] = []
        previous = 0.0
        for attempt in range(max(0, self.max_attempts - 1)):
            raw = min(self.max_delay, self.base_delay * self.multiplier**attempt)
            if rng is not None and self.jitter > 0:
                raw = min(self.max_delay, raw * (1.0 + self.jitter * float(rng.random())))
            previous = max(previous, raw)
            delays.append(previous)
        return tuple(delays)

    # -- execution ----------------------------------------------------

    def execute(
        self,
        env: Environment,
        make_attempt: Callable[[], Generator[Event, Any, Any]],
        rng: "np.random.Generator | None" = None,
        retry_on: tuple[type[BaseException], ...] = TRANSIENT_ERRORS,
        on_retry: Callable[[int, float, BaseException], None] | None = None,
        name: str = "call",
    ) -> Generator[Event, Any, Any]:
        """Run ``make_attempt()`` under this policy (process generator).

        ``make_attempt`` must return a *fresh* generator per attempt.
        Non-transient failures propagate immediately; transient ones are
        retried until attempts or the deadline run out, after which
        :class:`RetryExhausted` (chaining the last error) is raised.
        ``on_retry(attempt_index, delay, error)`` fires before each
        backoff sleep — the hook metrics layers use to count retries.
        """
        start = env.now
        schedule: tuple[float, ...] | None = None
        last_error: BaseException | None = None
        attempts = 0
        for attempt in range(self.max_attempts):
            remaining: float | None = None
            if self.deadline is not None:
                remaining = self.deadline - (env.now - start)
                if remaining <= 0:
                    break
            per_attempt = self.timeout
            if per_attempt is None:
                per_attempt = remaining
            elif remaining is not None:
                per_attempt = min(per_attempt, remaining)
            attempts += 1
            try:
                return (
                    yield from with_timeout(
                        env, make_attempt(), per_attempt, name=f"{name}#{attempt}"
                    )
                )
            except retry_on as exc:
                last_error = exc
            if attempt + 1 >= self.max_attempts:
                break
            if schedule is None:
                # Drawn lazily: a call that never fails consumes no RNG.
                schedule = self.schedule(rng)
            delay = schedule[attempt]
            if self.deadline is not None:
                budget = self.deadline - (env.now - start)
                if budget <= 0:
                    break
                delay = min(delay, budget)
            if on_retry is not None:
                on_retry(attempt, delay, last_error)
            if delay > 0:
                yield env.timeout(delay)
        raise RetryExhausted(
            f"{name}: gave up after {attempts} attempt(s) "
            f"in {env.now - start:.3f}s",
            attempts=attempts,
            last_error=last_error,
        ) from last_error
