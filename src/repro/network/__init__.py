"""Simulated P2P message substrate (the JXTA stand-in).

The paper's prototype is built on JXTA, which provides peer naming, pipes,
message envelopes and resource advertisements over an arbitrary physical
network.  The distributed algorithms only rely on a small slice of that:
asynchronous delivery of messages between named peers.  This package provides
exactly that slice as an in-process simulator:

* :mod:`repro.network.message` — message envelopes and the protocol's four
  message types,
* :mod:`repro.network.latency` — deterministic latency models used to assign
  a simulated delivery delay to every message,
* :mod:`repro.network.transport` — :class:`SyncTransport`, the
  discrete-event transport (virtual clock) whose latency model decides the
  delivery order.
"""

from repro.network.message import Message, MessageType
from repro.network.latency import ConstantLatency, UniformLatency, PerHopLatency
from repro.network.transport import SyncTransport, BaseTransport

__all__ = [
    "Message",
    "MessageType",
    "ConstantLatency",
    "UniformLatency",
    "PerHopLatency",
    "BaseTransport",
    "SyncTransport",
]
