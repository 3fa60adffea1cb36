"""Conduit-style hierarchical data model (paper Sec 2.2.2).

All monitoring payloads in the SOMA stack are :class:`Node` trees,
mirroring how the paper uses ``Conduit::Node`` to give each monitoring
namespace its own logical tree that can be merged during analysis.  A
source whose every sample has the same leaves publishes rows against a
schema declared once instead (:mod:`repro.conduit.rows`); a reader gets
the same tree back.
"""

from .node import Node, PathError

__all__ = ["Node", "PathError"]
