"""Mochi-style RPC, the communication substrate of SOMA's services.

RP's own component pipes are modelled inside the agent, as the
scheduler's and executor's ``sim.Store`` inboxes.
"""

from .protocol import (
    AdmissionRejected,
    RPCError,
    RPCRequest,
    RPCResponse,
    RPCTimeout,
    ServiceUnavailable,
)
from .rpc import RPCClient, RPCRegistry, RPCServer, ServerStats

__all__ = [
    "AdmissionRejected",
    "RPCClient",
    "RPCError",
    "RPCRegistry",
    "RPCRequest",
    "RPCResponse",
    "RPCServer",
    "RPCTimeout",
    "ServerStats",
    "ServiceUnavailable",
]
