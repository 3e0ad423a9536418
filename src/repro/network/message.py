"""Message envelopes for the discovery and update protocols.

A :class:`Message` is what a JXTA message envelope is in the prototype: a
typed payload addressed from one peer to another.  The payload is a plain
dictionary of picklable values; :meth:`Message.size_estimate` gives a byte
estimate used by the statistics module to report "volumes of data transferred
onto pipes" without actually serialising every message.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
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

    def size_estimate(self) -> int:
        """Rough size in bytes: envelope plus payload contents.

        Tuples count 8 bytes per field, strings their length, everything else
        a flat 8 bytes.  The estimate only needs to be monotone in the amount
        of data carried so that the byte counters of the statistics module
        rank configurations the same way real serialisation would.
        """
        size = 64  # envelope: addresses, type, sequence number
        for value in self.payload.values():
            size += _value_size(value)
        return size

    def __str__(self) -> str:
        return f"{self.type.value}[{self.sender}->{self.recipient}]#{self.sequence}"


def _value_size(value: Any) -> int:
    if isinstance(value, str):
        return len(value)
    if isinstance(value, Mapping):
        return sum(_value_size(k) + _value_size(v) for k, v in value.items()) + 8
    if not isinstance(value, (list, tuple, set, frozenset)):
        return 8
    # A collection.  Nearly every byte a run ships is a fragment — a set of
    # tuples of strings and integers — so those two levels are sized in one
    # flat pass right here; only what is nested deeper recurses.
    size = 8
    for row in value:
        if type(row) is not tuple:
            size += _value_size(row)
            continue
        size += 8
        for item in row:
            kind = type(item)
            if kind is str:
                size += len(item)
            elif kind is int:
                size += 8
            else:
                size += _value_size(item)
    return size
