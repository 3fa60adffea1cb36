"""SOMA monitoring clients: hardware (/proc), workflow (RP), TAU."""

from .hardware_monitor import HardwareMonitorModel, hardware_monitor_descriptions
from .rp_monitor import RPMonitorModel, rp_monitor_description, summarize_profile
from .tau import TAUWrappedModel

__all__ = [
    "HardwareMonitorModel",
    "RPMonitorModel",
    "TAUWrappedModel",
    "hardware_monitor_descriptions",
    "rp_monitor_description",
    "summarize_profile",
]
