"""Message envelopes for the discovery and update protocols.

A :class:`Message` is what a JXTA message envelope is in the prototype: a
typed payload addressed from one peer to another.  The payload is a plain
dictionary of picklable values; :meth:`Message.size_estimate` gives a byte
estimate used by the statistics module to report "volumes of data transferred
onto pipes" without actually serialising every message.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class MessageType(str, Enum):
    """The message vocabulary of the two protocol phases plus control traffic."""

    # Topology discovery (algorithms A1-A3).
    REQUEST_NODES = "request_nodes"
    DISCOVERY_ANSWER = "discovery_answer"

    # Distributed update (algorithms A4-A6).
    UPDATE_REQUEST = "update_request"
    QUERY = "query"
    ANSWER = "answer"

    # Dynamic network control (Section 4) and super-peer control (Section 5).
    ADD_RULE = "add_rule"
    DELETE_RULE = "delete_rule"
    STATS_REQUEST = "stats_request"
    STATS_REPLY = "stats_reply"
    RESET = "reset"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_SEQUENCE = itertools.count()


@dataclass(frozen=True)
class Message:
    """One message on the simulated network."""

    sender: str
    recipient: str
    type: MessageType
    payload: Mapping[str, Any] = field(default_factory=dict)
    sequence: int = field(default_factory=lambda: next(_SEQUENCE))
    #: The modelled size of ``payload["tuples"]`` when the sender already
    #: knows it (a maintained fragment carries its own); not part of the
    #: message's identity, and nothing on the wire depends on it.
    tuples_size: int | None = field(default=None, compare=False, repr=False)

    def size_estimate(self) -> int:
        """Rough size in bytes: envelope plus payload contents.

        Tuples count 8 bytes per field, strings their length, everything else
        a flat 8 bytes.  The estimate only needs to be monotone in the amount
        of data carried so that the byte counters of the statistics module
        rank configurations the same way real serialisation would.
        """
        size = 64  # envelope: addresses, type, sequence number
        known = self.tuples_size
        for key, value in self.payload.items():
            if known is not None and key == "tuples":
                size += known
            else:
                size += value_size(value)
        return size

    def __str__(self) -> str:
        return f"{self.type.value}[{self.sender}->{self.recipient}]#{self.sequence}"


def value_size(value: Any) -> int:
    """The modelled bytes of one payload value (see ``size_estimate``)."""
    if isinstance(value, str):
        return len(value)
    if isinstance(value, Mapping):
        return sum(value_size(k) + value_size(v) for k, v in value.items()) + 8
    if not isinstance(value, (list, tuple, set, frozenset)):
        return 8
    return 8 + rows_size(value)


def rows_size(rows: Iterable) -> int:
    """The modelled bytes of a collection's members (the collection itself
    adds 8), so a fragment's size can be kept up to date from the rows it
    gains: ``size(rows | more) == size(rows) + rows_size(more - rows)``.

    Nearly every byte a run ships is a fragment — a set of tuples of strings
    and integers — so those two levels are sized in one flat pass right
    here; only what is nested deeper recurses.
    """
    size = 0
    for row in rows:
        if type(row) is not tuple:
            size += value_size(row)
            continue
        size += 8
        for item in row:
            kind = type(item)
            if kind is str:
                size += len(item)
            elif kind is int:
                size += 8
            else:
                size += value_size(item)
    return size
