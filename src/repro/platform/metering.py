"""Time-weighted meters for utilization accounting.

A :class:`StepIntegrator` tracks a step function (e.g. "busy cores on
node 7") and can report its time integral — exactly what a /proc-style
sampler needs to turn cumulative jiffies into interval utilization.
"""

from __future__ import annotations

from ..sim.core import Environment

__all__ = ["StepIntegrator", "EventCounter"]


class StepIntegrator:
    """Integrates a piecewise-constant signal over simulated time.

    Only the current value and the running integral are kept, so a
    meter's memory stays constant however long the run.
    """

    __slots__ = ("env", "value", "_integral", "_last_time")

    def __init__(self, env: Environment, initial: float = 0.0) -> None:
        self.env = env
        self.value = float(initial)
        self._integral = 0.0
        self._last_time = env.now

    def _advance(self) -> None:
        now = self.env.now
        if now > self._last_time:
            self._integral += self.value * (now - self._last_time)
            self._last_time = now

    def add(self, delta: float) -> None:
        """Shift the signal by ``delta`` at the current time."""
        self._advance()
        self.value += delta

    def set(self, value: float) -> None:
        self._advance()
        self.value = float(value)

    @property
    def integral(self) -> float:
        """Integral of the signal from t=0 to now."""
        self._advance()
        return self._integral


class EventCounter:
    """Counts events and remembers their timestamps (bounded)."""

    __slots__ = ("env", "count", "timestamps", "_keep")

    def __init__(self, env: Environment, keep: int = 100000) -> None:
        self.env = env
        self.count = 0
        self.timestamps: list[float] = []
        self._keep = keep

    def hit(self) -> None:
        self.count += 1
        if len(self.timestamps) < self._keep:
            self.timestamps.append(self.env.now)

    def rate(self, window: float) -> float:
        """Events per second over the trailing ``window`` seconds."""
        if window <= 0:
            return 0.0
        cutoff = self.env.now - window
        recent = sum(1 for t in self.timestamps if t >= cutoff)
        return recent / window
