"""Deterministic fault injection, recovery, and post-heal reconciliation.

The chaos layer of the reproduction (the ROADMAP's "churn, partitions, and
reconciliation scenarios" item): seeded :class:`FaultPlan`s describe worker
kills, frame drops/delays and host partitions; :class:`FaultInjector` fires
them at the engines' phase hook points and owns the recovery budget
(bounded send retries, cold re-runs); :mod:`repro.faults.reconcile` merges
divergent databases after a heal from their :class:`Change` logs.  See
``docs/faults.md`` for the plan format and the recovery guarantees.
"""

from repro.faults.injector import (
    NULL_INJECTOR,
    FaultInjector,
    NullFaultInjector,
    WorkerFrameInjector,
    injector_of,
)
from repro.faults.plan import (
    FAULT_KINDS,
    FAULT_PHASES,
    FRAME_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.faults.reconcile import reconcile
from repro.faults.recovery import RetryPolicy, retry_after_hint, retry_call

__all__ = [
    "FAULT_KINDS",
    "FAULT_PHASES",
    "FRAME_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "NULL_INJECTOR",
    "NullFaultInjector",
    "RetryPolicy",
    "WorkerFrameInjector",
    "injector_of",
    "reconcile",
    "retry_after_hint",
    "retry_call",
]
