"""SOMA's four monitoring namespaces (paper Sec 2.3.2).

Monitoring data is divided into *workflow*, *hardware*, *performance*
and *application* namespaces; the service task's N ranks are divided
among per-namespace instances, each serving the compute and storage
needs of one source.
"""

from __future__ import annotations

__all__ = [
    "WORKFLOW",
    "HARDWARE",
    "PERFORMANCE",
    "APPLICATION",
    "ALL_NAMESPACES",
]

WORKFLOW = "workflow"
HARDWARE = "hardware"
PERFORMANCE = "performance"
APPLICATION = "application"

ALL_NAMESPACES: tuple[str, ...] = (WORKFLOW, HARDWARE, PERFORMANCE, APPLICATION)
