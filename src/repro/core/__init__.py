"""The paper's primary contribution: the distributed discovery and update algorithms.

* :mod:`repro.core.state` — the per-node data structures of Section 3
  (``state_d``, ``state_u``, ``Rules``, ``Paths``, ``Edges``, ``owner``),
* :mod:`repro.core.discovery` — topology discovery (algorithms A1–A3),
* :mod:`repro.core.update` — the distributed database update (algorithms
  A4–A6) with loop detection and fix-point tracking,
* :mod:`repro.core.node` — :class:`PeerNode`, one peer with its local
  database, its coordination rules and both protocol engines,
* :mod:`repro.core.system` — :class:`P2PSystem`, the whole network: nodes,
  rule registry and transport (the Section 5 super-peer is
  ``P2PSystem.super_peer``, discovery's default origin; a
  :class:`repro.api.Session` starts its runs and collects or resets the
  statistics),
* :mod:`repro.core.dynamics` — the dynamic-network model of Section 4
  (``addLink`` / ``deleteLink``, changes, sub-changes, sound/complete
  envelopes, separation),
* :mod:`repro.core.fixpoint` — fix-point/quiescence checking utilities.
"""

from repro.core.state import DiscoveryState, UpdateState, NodeState
from repro.core.node import PeerNode
from repro.core.system import P2PSystem
from repro.core.dynamics import (
    AddLink,
    DeleteLink,
    NetworkChange,
    sound_envelope,
    complete_envelope,
    is_sound_answer,
    is_complete_answer,
)
from repro.core.fixpoint import (
    all_nodes_closed,
    satisfies_all_rules,
    verify_against_centralized,
)

__all__ = [
    "DiscoveryState",
    "UpdateState",
    "NodeState",
    "PeerNode",
    "P2PSystem",
    "AddLink",
    "DeleteLink",
    "NetworkChange",
    "sound_envelope",
    "complete_envelope",
    "is_sound_answer",
    "is_complete_answer",
    "all_nodes_closed",
    "satisfies_all_rules",
    "verify_against_centralized",
]
