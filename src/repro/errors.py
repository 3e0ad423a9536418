"""Exception hierarchy for the P2P database reproduction.

Every error raised by the library derives from :class:`ReproError`, so a
caller embedding the library can catch one base class.  The sub-classes mirror
the major subsystems: the relational engine, the coordination-rule layer, the
simulated network, and the distributed protocol itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A relation schema is malformed or used inconsistently.

    Raised for duplicate attribute names, arity mismatches between a tuple and
    the schema it is inserted into, or references to relations that do not
    exist in a :class:`~repro.database.database.LocalDatabase`.
    """


class QueryError(ReproError):
    """A conjunctive query is syntactically or semantically invalid.

    Examples: the textual parser cannot parse a rule, a head variable is not
    bound anywhere, or a built-in predicate compares two unbound variables.
    """


class RuleError(ReproError):
    """A coordination rule is invalid.

    Raised when the head and a body atom are assigned to the same node, when a
    rule identifier is reused for the same pair of nodes, or when a rule
    references a relation missing from the node schema it targets.
    """


class NetworkError(ReproError):
    """A failure in the simulated P2P message substrate.

    Raised when sending to an unregistered peer, when a pipe has been closed,
    or when the transport has been shut down while messages are still queued.
    """


class PipeClosedError(NetworkError):
    """A message was sent on a pipe that has already been closed."""


class UnknownPeerError(NetworkError):
    """A message was addressed to a peer identifier that is not registered."""


class ProtocolError(ReproError):
    """The distributed discovery/update protocol received an unexpected message.

    This indicates either a corrupted message payload or a message type that
    the receiving node cannot handle in its current state.
    """


class TerminationError(ReproError):
    """The update run did not quiesce within the configured bound.

    The paper's Theorem 2(3) shows that under an *infinite* change stream the
    algorithm may not terminate; the engine therefore enforces an explicit
    bound on simulated steps and raises this error when the bound is hit.
    """


class FaultError(ReproError):
    """A fault-injection plan is invalid or a fault could not be applied.

    Raised when a :class:`~repro.faults.plan.FaultPlan` references an unknown
    fault kind or phase, when a fault targets an engine that cannot express it
    (e.g. a host partition on a non-socket transport), or when a log-based
    reconciliation pass is asked to merge change logs it cannot merge safely.
    """


class PartitionError(NetworkError):
    """A send was blocked by an injected (and not yet healed) host partition.

    Subclasses :class:`NetworkError` so the existing crash-detection and
    retry machinery treats a partition like any other transport failure,
    while chaos tests can still assert the *typed* cause.
    """


class ChangeError(ReproError):
    """A network change (addLink/deleteLink, a change document) is invalid.

    Raised for deleting a rule id that does not exist between the given pair
    of nodes, or adding a rule with an id already used for that pair
    (Definition 8 requires per-pair unique rule names), and by
    :meth:`~repro.coordination.changeset.Change.check` for any change that
    cannot apply whole — nothing has been mutated when it is raised.
    """
