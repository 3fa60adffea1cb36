"""Workload models: OpenFOAM/AdditiveFOAM, DeepDriveMD mini-app, synthetic."""

from .ddmd import (
    DDMDParams,
    GPUStageTaskModel,
    STAGE_NAMES,
    SelectionTaskModel,
    ddmd_phase_stages,
)
from .openfoam import OpenFOAMParams, OpenFOAMTaskModel, openfoam_task_description
from .synthetic import uniform_bag

__all__ = [
    "DDMDParams",
    "GPUStageTaskModel",
    "OpenFOAMParams",
    "OpenFOAMTaskModel",
    "STAGE_NAMES",
    "SelectionTaskModel",
    "ddmd_phase_stages",
    "openfoam_task_description",
    "uniform_bag",
]
