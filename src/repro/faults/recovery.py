"""Bounded retry-with-backoff for transient transport failures.

The socket links use :func:`retry_call` around connects and frame writes when
a fault plan grants a retry budget: a partition that heals within the budget
is ridden out transparently, one that does not re-raises the last (typed)
error.  The policy is deliberately tiny — attempts, an exponential backoff,
and a cap — because the quiescence barrier above already bounds total stall
time at :data:`~repro.sharding.pool._WORKER_TIMEOUT`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import FaultError, NetworkError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and how patiently, to retry a failed call."""

    attempts: int
    backoff: float = 0.05
    factor: float = 2.0
    max_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 0:
            raise FaultError(f"retry attempts must be >= 0, got {self.attempts}")
        if self.backoff < 0 or self.max_backoff < 0 or self.factor < 1.0:
            raise FaultError(
                "retry backoff/max_backoff must be >= 0 and factor >= 1.0"
            )

    def delays(self) -> list[float]:
        """The sleep before each retry (length == ``attempts``)."""
        delays = []
        delay = self.backoff
        for _ in range(self.attempts):
            delays.append(min(delay, self.max_backoff))
            delay *= self.factor
        return delays


def retry_after_hint(policy: RetryPolicy) -> float:
    """Seconds a caller should wait once ``policy``'s budget is spent.

    The serving front-end puts this on ``Retry-After`` headers when a run
    fails through the whole retry schedule (e.g. an unhealed partition):
    retrying sooner than the schedule's last backoff step would just replay
    the same failure, so that step is the honest hint.  A zero-attempt
    policy falls back to the base backoff.
    """
    delays = policy.delays()
    return delays[-1] if delays else max(policy.backoff, 0.05)


def retry_call(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...] = (NetworkError,),
    on_retry: Callable[[BaseException], None] | None = None,
) -> T:
    """Call ``fn``, retrying up to ``policy.attempts`` times on ``retryable``.

    ``on_retry`` is invoked with the error before each sleep (the injector
    hooks it to bump ``repro_fault_retries_total``).  The final failure
    re-raises unchanged so callers keep the typed cause.
    """
    schedule: list[float | None] = [*policy.delays(), None]
    for delay in schedule:
        try:
            return fn()
        except retryable as error:
            if delay is None:
                raise
            if on_retry is not None:
                on_retry(error)
            time.sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
