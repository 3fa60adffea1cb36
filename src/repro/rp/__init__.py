"""Simulated RADICAL-Pilot: pilots, tasks, client and agent.

The development vehicle of the paper: a pilot-paradigm runtime that
acquires HPC resources as a batch job and schedules heterogeneous tasks
onto them without further batch-queue round trips.  The SOMA service
and its monitoring clients run *inside* this runtime as first-class
service tasks (see :mod:`repro.soma.integration`).
"""

from .client import Client, PilotManager, TaskManager
from .config import DEFAULT_RP_CONFIG, RPConfig
from .description import PilotDescription, TaskDescription, TaskMode
from .model import (
    ComputeModel,
    ExecutionContext,
    FailingModel,
    FixedDurationModel,
    RankProfile,
    ServiceModel,
    TaskModel,
    TaskResult,
)
from .pilot import Pilot
from .profiler import ProfileRecord, ProfileStore, TransitionLog
from .raptor import FunctionCall, RaptorMaster, RaptorWorkerModel
from .session import Session
from .states import (
    EXECUTING_EVENTS,
    InvalidTransition,
    PilotState,
    TASK_FINAL_STATES,
    TASK_STATE_ORDER,
    TaskState,
)
from .task import Task

__all__ = [
    "Client",
    "ComputeModel",
    "DEFAULT_RP_CONFIG",
    "EXECUTING_EVENTS",
    "ExecutionContext",
    "FailingModel",
    "FixedDurationModel",
    "FunctionCall",
    "InvalidTransition",
    "Pilot",
    "PilotDescription",
    "PilotManager",
    "PilotState",
    "ProfileRecord",
    "ProfileStore",
    "RankProfile",
    "RaptorMaster",
    "RaptorWorkerModel",
    "RPConfig",
    "ServiceModel",
    "Session",
    "Task",
    "TASK_FINAL_STATES",
    "TASK_STATE_ORDER",
    "TaskDescription",
    "TaskManager",
    "TaskMode",
    "TaskModel",
    "TaskResult",
    "TaskState",
    "TransitionLog",
]
