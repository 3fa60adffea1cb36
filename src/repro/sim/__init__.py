"""Discrete-event simulation kernel (from-scratch, SimPy-flavoured).

Public surface::

    from repro.sim import Environment, Interrupt, AllOf, AnyOf
    from repro.sim import Resource, Store
    from repro.sim import Tracer
    from repro.sim import observability

Every simulated subsystem in this repository is a set of generator
processes scheduled on one :class:`Environment`.
"""

from .core import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    StopSimulation,
    Timeout,
    observability,
    switches,
)
from .sanitizer import (
    KernelSanitizer,
    SanitizerError,
    SanitizerFinding,
    SharedDict,
    drain_spontaneous_findings,
)
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    TimeoutExpired,
    with_timeout,
)
from .resources import Release, Request, Resource
from .stores import Store
from .trace import TraceRecord, Tracer

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "observability",
    "switches",
    "KernelSanitizer",
    "SanitizerError",
    "SanitizerFinding",
    "SharedDict",
    "drain_spontaneous_findings",
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "TimeoutExpired",
    "with_timeout",
    "Release",
    "Request",
    "Resource",
    "Store",
    "TraceRecord",
    "Tracer",
]
