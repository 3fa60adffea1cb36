"""SOMA: Service-based Observability, Monitoring and Analysis.

The paper's primary contribution: a service-based performance
observability framework for heterogeneous HPC workflows, deployed as a
first-class RP service task with per-namespace instances, client stubs
publishing Conduit trees over RPC, and online analysis.
"""

from .application import (
    ApplicationMetrics,
    InstrumentedModel,
)
from .analysis import (
    UtilizationPoint,
    cpu_utilization_series,
    free_resource_estimate,
    load_imbalance,
    rank_region_breakdown,
    task_state_observations,
    task_throughput,
    workflow_summary_series,
)
from .client import SomaClient
from .dashboard import render_dashboard
from .integration import SomaDeployment, deploy_soma, no_soma
from .namespaces import (
    ALL_NAMESPACES,
    APPLICATION,
    HARDWARE,
    PERFORMANCE,
    WORKFLOW,
)
from .service import (
    SomaConfig,
    SomaServiceModel,
    soma_service_description,
)
from .sharding import (
    AdmissionController,
    HashRing,
    TokenBucket,
    shard_key,
)
from .storage import NamespaceStore, PublishedRecord

__all__ = [
    "ALL_NAMESPACES",
    "APPLICATION",
    "AdmissionController",
    "ApplicationMetrics",
    "InstrumentedModel",
    "HARDWARE",
    "HashRing",
    "NamespaceStore",
    "PERFORMANCE",
    "PublishedRecord",
    "SomaClient",
    "SomaConfig",
    "SomaDeployment",
    "SomaServiceModel",
    "TokenBucket",
    "shard_key",
    "UtilizationPoint",
    "WORKFLOW",
    "cpu_utilization_series",
    "deploy_soma",
    "free_resource_estimate",
    "load_imbalance",
    "render_dashboard",
    "no_soma",
    "rank_region_breakdown",
    "soma_service_description",
    "task_state_observations",
    "task_throughput",
    "workflow_summary_series",
]
