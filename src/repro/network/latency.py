"""Deterministic latency models for the simulated network.

Every message is assigned a delivery delay by a latency model.  The models are
seeded and deterministic so that two runs of the same experiment produce the
same simulated completion time and message ordering — essential for the
regression tests and for comparing topologies fairly.  A seeded
:class:`UniformLatency` is also the schedule explorer: each seed is one legal
delivery order of the same network.
"""

from __future__ import annotations

import random
from typing import Protocol

from repro.network.message import Message


class LatencyModel(Protocol):
    """Anything that maps a message to a non-negative delivery delay."""

    def delay_for(self, message: Message, index: int) -> float:
        """Return the simulated delivery delay of ``message`` in time units.

        ``index`` counts the messages the sending transport scheduled before
        this one, so a seeded draw depends on the system's own traffic only.
        """
        ...  # pragma: no cover - protocol definition


class ConstantLatency:
    """Every message takes exactly ``delay`` time units (the default model)."""

    def __init__(self, delay: float = 1.0):
        if delay < 0:
            raise ValueError("latency must be non-negative")
        self.delay = delay

    def delay_for(self, message: Message, index: int) -> float:
        return self.delay


class UniformLatency:
    """Delay drawn uniformly from ``[low, high]`` with a seeded generator.

    The draw depends only on the seed and on the transport's send index, so
    the same seed replays the same schedule of the same system, however much
    other traffic the process has already made.
    """

    def __init__(self, low: float, high: float, seed: int = 0):
        if low < 0 or high < low:
            raise ValueError("need 0 <= low <= high")
        self.low = low
        self.high = high
        self.seed = seed

    def delay_for(self, message: Message, index: int) -> float:
        generator = random.Random(f"{self.seed}-{index}")
        return generator.uniform(self.low, self.high)


class PerHopLatency:
    """Different base delay per (sender, recipient) pair plus a constant floor.

    Used by the topology experiments to give, e.g., deeper tree levels a
    different link cost, or to model a slow peer.
    """

    def __init__(
        self,
        base: float = 1.0,
        overrides: dict[tuple[str, str], float] | None = None,
    ):
        if base < 0:
            raise ValueError("latency must be non-negative")
        self.base = base
        self.overrides = dict(overrides or {})

    def delay_for(self, message: Message, index: int) -> float:
        return self.overrides.get((message.sender, message.recipient), self.base)
