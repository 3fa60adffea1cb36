"""Generic synthetic workload generators for tests and examples."""

from __future__ import annotations

from ..rp.description import TaskDescription
from ..rp.model import FixedDurationModel

__all__ = ["uniform_bag"]


def uniform_bag(
    count: int,
    duration: float,
    ranks: int = 1,
    name: str = "uniform",
) -> list[TaskDescription]:
    """``count`` identical fixed-duration tasks of one core per rank (a classic BoT)."""
    return [
        TaskDescription(
            name=f"{name}-{i}",
            model=FixedDurationModel(duration),
            ranks=ranks,
        )
        for i in range(count)
    ]
