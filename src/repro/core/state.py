"""Per-node protocol state (the data structures listed in Section 3).

The paper equips every node with:

* ``state_d`` — discovery state: undefined, ``discovery`` or ``closed``,
* ``state_u`` — update state: ``open`` or ``closed``,
* ``finished`` — whether network discovery *through* this node is finished,
* ``Rules(rule, node, flag)`` — the coordination rules targeting the node,
* ``Paths(path, flag, closed)`` — the node's maximal dependency paths,
* ``Edges(source, target)`` — dependency edges known so far,
* ``owner`` — pairs (requesting node, node on whose behalf the request runs).

This module holds those structures in dataclasses so the protocol code in
:mod:`repro.core.discovery` and :mod:`repro.core.update` stays readable and
the tests can inspect every flag the paper mentions.

Two structures are ours, not the paper's: ``fragment_cache``, the fragments a
peer maintains for the bodies its outgoing rules read, one per distinct body
(:class:`MaintainedFragment`), and
``fired``, what each incoming rule's stored fragments were last joined into
(:class:`FiredMark`).  Both are derived from the local database alone and
check themselves against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from repro.coordination.rule import CoordinationRule, NodeId
from repro.database.relation import Relation

Path = tuple[NodeId, ...]
Edge = tuple[NodeId, NodeId]


class DiscoveryState(str, Enum):
    """The paper's ``state_d``: knowledge about the network topology."""

    UNDEFINED = "undefined"
    DISCOVERY = "discovery"
    CLOSED = "closed"


class UpdateState(str, Enum):
    """The paper's ``state_u``: status of the data at a node."""

    OPEN = "open"
    CLOSED = "closed"


@dataclass
class RuleFlags:
    """Per-rule bookkeeping used by both protocol phases.

    ``flag`` is the paper's Rules.flag (the branch reported a *closed* state);
    ``finished`` mirrors the per-branch "discovery finished" indicator; the
    update phase uses ``complete_sources`` to remember which source nodes have
    reported a complete fragment.
    """

    flag: bool = False
    finished: bool = False
    complete_sources: set[NodeId] = field(default_factory=set)


@dataclass
class PathFlags:
    """Per-path bookkeeping of the update phase (Paths.flag / Paths.closed)."""

    no_new_data: bool = False
    closed: bool = False


@dataclass
class OwnerEntry:
    """One entry of the paper's ``owner`` array.

    ``requester`` is the node that sent the request (may be ``None`` for the
    entry a super-peer records about itself), ``origin`` is the node on whose
    behalf the request is made, and ``rule_id`` (update phase only) is the
    rule through which the requester imports data from this node.
    """

    requester: NodeId | None
    origin: NodeId
    rule_id: str | None = None


@dataclass
class MaintainedFragment:
    """The fragment of one body the peer's outgoing rules read, and what it
    was computed from.

    The entry describes a body, not a rule: it is stored under the body's key
    (:func:`repro.core.update.fragment_body`), and every outgoing rule with
    that body shares it.  ``marks`` holds, per relation of the body (in the
    order of its relation names), the ``Relation`` object that was read, its
    ``removals`` counter and its row count at that moment — ``(None, 0, 0)``
    for a relation the database did not have.  The entry is valid for as long
    as the body's relations are the same objects with the same ``removals``;
    rows counted beyond ``marks`` are then exactly the rows inserted since
    (:func:`repro.core.update.maintain_fragment`).  ``size`` is the modelled
    byte size of ``rows`` as a message payload value
    (:meth:`repro.network.message.Message.size_estimate`), kept up to date
    from the rows the fragment gains instead of being re-walked per send.
    """

    rows: frozenset[tuple]
    marks: tuple[tuple[Relation | None, int, int], ...]
    size: int


class FiredMark(NamedTuple):
    """What an incoming rule's stored fragments have been joined and chased into.

    Every firing over the fragments stored so far has been offered to the
    head relation for as long as the same rule object targets the same
    ``Relation`` object with the same ``removals``: an answer then only has
    to fire the rows it adds.  Anything else — a ``delete`` or ``clear`` at
    the head, a swapped relation, another rule under the same id — fails the
    comparison and the rule is fired in full again
    (:meth:`repro.core.update.UpdateProtocol._receive`).
    """

    rule: CoordinationRule
    relation: Relation
    removals: int


@dataclass
class NodeState:
    """The complete mutable protocol state of one peer."""

    # -- discovery phase -----------------------------------------------------
    state_d: DiscoveryState = DiscoveryState.UNDEFINED
    finished: bool = False
    edges: set[Edge] = field(default_factory=set)
    paths: dict[Path, PathFlags] = field(default_factory=dict)
    discovery_owner: list[OwnerEntry] = field(default_factory=list)
    origins_seen: set[NodeId] = field(default_factory=set)
    branch_state_closed: dict[NodeId, bool] = field(default_factory=dict)
    branch_finished: dict[NodeId, bool] = field(default_factory=dict)

    # -- update phase --------------------------------------------------------
    state_u: UpdateState = UpdateState.OPEN
    rule_flags: dict[str, RuleFlags] = field(default_factory=dict)
    update_owner: list[OwnerEntry] = field(default_factory=list)
    fragments: dict[tuple[str, NodeId], frozenset[tuple]] = field(default_factory=dict)
    update_paths: dict[Path, PathFlags] = field(default_factory=dict)
    queried_paths: set[Path] = field(default_factory=set)
    update_started: bool = False
    # Pull-round bookkeeping: the (rule, source) answers the current round is
    # still waiting for, whether the round imported anything new, whether
    # another round was requested while one was running, and a counter.
    pending_answers: set[tuple[str, NodeId]] = field(default_factory=set)
    round_dirty: bool = False
    rerun_requested: bool = False
    rounds_completed: int = 0
    # Last fragment pushed to each (rule, requester) pair; pushes whose
    # fragment did not change since are suppressed (delta optimisation).
    pushed_fragments: dict[tuple[str, NodeId], frozenset[tuple]] = field(
        default_factory=dict
    )
    # The fragment of each body the outgoing rules read, keyed by the body
    # (rules with equal bodies share one), maintained across answers, pushes
    # and runs; entries validate themselves, nothing has to invalidate them.
    fragment_cache: dict[str, MaintainedFragment] = field(default_factory=dict)
    # Per incoming rule, what its stored fragments were last fired into;
    # self-validating like the fragment cache.
    fired: dict[str, FiredMark] = field(default_factory=dict)

    # ------------------------------------------------------------------ reset

    def reset_discovery(self) -> None:
        """Forget every discovery-phase datum (super-peer RESET)."""
        self.state_d = DiscoveryState.UNDEFINED
        self.finished = False
        self.edges.clear()
        self.paths.clear()
        self.discovery_owner.clear()
        self.origins_seen.clear()
        self.branch_state_closed.clear()
        self.branch_finished.clear()

    def reset_update(self) -> None:
        """Forget every update-phase datum (local data itself is kept)."""
        self.state_u = UpdateState.OPEN
        self.rule_flags.clear()
        self.update_owner.clear()
        self.fragments.clear()
        self.update_paths.clear()
        self.queried_paths.clear()
        self.update_started = False
        self.pending_answers.clear()
        self.round_dirty = False
        self.rerun_requested = False
        self.rounds_completed = 0
        self.pushed_fragments.clear()
        self.fragment_cache.clear()
        self.fired.clear()

    def forget_incoming_rule(self, rule_id: str) -> None:
        """Drop the fragments received for a rule that no longer targets this
        node (its rows have that rule's shape) and what they were fired into."""
        self.fired.pop(rule_id, None)
        for key in [key for key in self.fragments if key[0] == rule_id]:
            del self.fragments[key]

    def forget_outgoing_rule(self, rule_id: str, body: str | None) -> None:
        """Drop the dependants and ledger of a rule no longer read here, and
        the fragment kept under ``body`` unless that is None (a remaining
        outgoing rule still reads the body)."""
        self.update_owner = [
            entry for entry in self.update_owner if entry.rule_id != rule_id
        ]
        if body is not None:
            self.fragment_cache.pop(body, None)
        for key in [key for key in self.pushed_fragments if key[0] == rule_id]:
            del self.pushed_fragments[key]

    # ------------------------------------------------------------- inspection

    def has_discovery_owner(self, requester: NodeId | None, origin: NodeId) -> bool:
        """True if an identical (requester, origin) pair is already recorded."""
        return any(
            entry.requester == requester and entry.origin == origin
            for entry in self.discovery_owner
        )

    def has_update_owner(self, requester: NodeId, rule_id: str) -> bool:
        """True if ``requester`` already registered interest through ``rule_id``."""
        return any(
            entry.requester == requester and entry.rule_id == rule_id
            for entry in self.update_owner
        )

    def maximal_paths(self) -> list[Path]:
        """The node's maximal dependency paths as recorded in ``paths``."""
        return sorted(self.paths)
