"""Simulated HPC platform (stands in for OLCF Summit).

Provides nodes with core/GPU maps and memory-bandwidth contention, a
shared tapered-fat-tree interconnect, a synthetic /proc per node, and a
FIFO batch system — everything the RADICAL-Pilot and SOMA layers above
need from the machine.
"""

from .batch import BatchError, BatchSystem, JobAllocation, JobRequest
from .cluster import Cluster
from .metering import StepIntegrator
from .network import Network, TransferStats
from .node import Allocation, AllocationError, Node, NodeFailure
from .procfs import ProcFS, ProcSnapshot
from .rateshare import Activity, ContentionDomain, FairShareChannel, RatePool
from .specs import SUMMIT, ClusterSpec, NetworkSpec, NodeSpec, summit_like

__all__ = [
    "Activity",
    "Allocation",
    "AllocationError",
    "BatchError",
    "BatchSystem",
    "Cluster",
    "ClusterSpec",
    "ContentionDomain",
    "FairShareChannel",
    "JobAllocation",
    "JobRequest",
    "Network",
    "NetworkSpec",
    "Node",
    "NodeFailure",
    "NodeSpec",
    "ProcFS",
    "ProcSnapshot",
    "RatePool",
    "StepIntegrator",
    "SUMMIT",
    "summit_like",
    "TransferStats",
]
