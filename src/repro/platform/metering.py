"""Time-weighted meters for utilization accounting.

A :class:`StepIntegrator` tracks a step function (e.g. "busy cores on
node 7") and can report its time integral — exactly what a /proc-style
sampler needs to turn cumulative jiffies into interval utilization.
Only signals whose integral is read are metered this way; a node keeps
the rest (memory in use, process count) as plain values.
"""

from __future__ import annotations

from ..sim.core import Environment

__all__ = ["StepIntegrator"]


class StepIntegrator:
    """Integrates a piecewise-constant signal over simulated time.

    The signal starts at 0 when the meter is built.  Only the current
    value and the running integral are kept, so a meter's memory stays
    constant however long the run.
    """

    __slots__ = ("env", "value", "_integral", "_last_time")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.value = 0.0
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

