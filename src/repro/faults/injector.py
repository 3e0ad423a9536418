"""Fault injectors: the machinery that arms and fires a :class:`FaultPlan`.

Two injectors exist, one per side of the engine split:

* :class:`FaultInjector` lives on the coordinator (attached to the
  :class:`~repro.core.system.P2PSystem` by the session, discovered by the
  engines through :func:`injector_of`).  It fires kill and partition faults
  at the engines' phase hook points, gates socket sends through the current
  partition set, and owns the cold-rerun recovery budget.
* :class:`WorkerFrameInjector` lives inside each shard worker process,
  rebuilt per spawn from the plan subset shipped with the
  :class:`~repro.sharding.worker.ShardWorld`.  It perturbs individual
  cross-shard frames (drop-and-retransmit, delay) on the simulated clock.

Everything is seeded (``random.Random(plan.seed)``) and every action bumps a
``repro_fault_*`` counter on the owning registry, so a chaos run is both
reproducible and observable.  The :data:`NULL_INJECTOR` keeps every hook a
cheap attribute check on fault-free runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Any

from repro.errors import FaultError, PartitionError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.recovery import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry


class NullFaultInjector:
    """The do-nothing injector every engine sees on a fault-free run."""

    enabled = False
    plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None

    def start_run(self) -> None:
        pass

    def fire(self, phase: str, pool: Any) -> None:
        pass

    def check_partition(self, address: str) -> None:
        pass

    def note_retry(self, error: BaseException) -> None:
        pass

    def should_rerun(self, error: BaseException) -> bool:
        return False

    def worker_plan(self) -> FaultPlan | None:
        return None


#: Shared singleton; engines fall back to it via :func:`injector_of`.
NULL_INJECTOR = NullFaultInjector()


def injector_of(obj: Any) -> "FaultInjector | NullFaultInjector":
    """The fault injector attached to ``obj`` (a system), or the null one."""
    injector = getattr(obj, "fault_injector", None)
    return injector if injector is not None else NULL_INJECTOR


class FaultInjector:
    """Coordinator-side injector: kills, partitions, and the recovery budget.

    One injector serves every run of its session; :meth:`start_run` advances
    the run index and arms the coordinator specs whose ``run_index`` matches.
    Fired specs are consumed immediately, so a cold re-run after a kill
    proceeds fault-free and converges.
    """

    enabled = True

    def __init__(self, plan: FaultPlan, registry: "MetricsRegistry") -> None:
        self.plan = plan
        self.registry = registry
        self._rng = random.Random(plan.seed)
        self._run = -1
        self._armed: list[FaultSpec] = []
        self._reruns_left = plan.max_cold_reruns
        # "HOST:PORT" -> heal deadline (monotonic seconds), None = permanent.
        self._partitions: dict[str, float | None] = {}

    # ------------------------------------------------------------ run control

    @property
    def retry_policy(self) -> RetryPolicy | None:
        if self.plan.send_retries <= 0:
            return None
        return RetryPolicy(
            attempts=self.plan.send_retries, backoff=self.plan.backoff
        )

    def start_run(self) -> None:
        """Advance to the next engine run and arm its coordinator faults."""
        self._run += 1
        self._armed = [
            spec
            for spec in self.plan.coordinator_specs()
            if spec.run_index == self._run
        ]

    def worker_plan(self) -> FaultPlan | None:
        """The frame-fault subset, rebased to the receiving worker generation.

        A plan's ``run_index`` counts the session's engine runs, but workers
        count ``start`` commands since their own spawn — and worlds ship at
        spawn time, which the engines always do *after* :meth:`start_run`.
        Subtracting the current run index makes the two clocks agree for
        every generation: a pool ships once (base = the run that spawned it)
        and counts forward, and a respawn after a crash (base = the run that
        respawned it) drops the specs its predecessor already lived
        through.
        """
        plan = self.plan.worker_plan()
        if plan is None:
            return None
        base = max(self._run, 0)
        faults = tuple(
            replace(spec, run_index=spec.run_index - base)
            for spec in plan.faults
            if spec.run_index >= base
        )
        if not faults:
            return None
        return plan.with_(faults=faults)

    # ------------------------------------------------------------- fire hooks

    def fire(self, phase: str, pool: Any) -> None:
        """Fire every armed fault declared for ``phase`` against ``pool``.

        ``pool`` must expose ``shard_count`` and ``kill_worker(shard)``;
        partitions additionally need ``host_of(shard)`` (socket pools only).
        """
        armed, self._armed = self._armed, []
        for spec in armed:
            if spec.phase != phase:
                self._armed.append(spec)
                continue
            shard = spec.shard
            if shard is None:
                shard = self._rng.randrange(pool.shard_count)
            elif shard >= pool.shard_count:
                raise FaultError(
                    f"fault targets shard {shard} but the pool has "
                    f"{pool.shard_count} shards"
                )
            if spec.kind == "kill_worker":
                pool.kill_worker(shard)
            elif spec.kind == "partition":
                host_of = getattr(pool, "host_of", None)
                if host_of is None:
                    raise FaultError(
                        "partition faults need the socket engine "
                        "(transport='socket')"
                    )
                deadline = (
                    None
                    if spec.heal_after is None
                    else time.monotonic() + spec.heal_after
                )
                self._partitions[host_of(shard)] = deadline
                self._count("repro_fault_partitions_total")
            else:  # pragma: no cover - frame kinds never reach the coordinator
                raise FaultError(f"cannot fire {spec.kind} on the coordinator")
            self._count(
                "repro_fault_injected_total",
                {"kind": spec.kind, "phase": phase},
            )

    # ---------------------------------------------------------- partition gate

    def check_partition(self, address: str) -> None:
        """Raise :class:`PartitionError` while ``address`` is partitioned.

        Called by every socket link before a write.  A deadline that has
        passed heals the partition (and counts the heal) instead of raising.
        """
        if address not in self._partitions:
            return
        deadline = self._partitions[address]
        if deadline is not None and time.monotonic() >= deadline:
            del self._partitions[address]
            self._count("repro_fault_partition_heals_total")
            return
        raise PartitionError(
            f"host {address} is partitioned from the coordinator"
        )

    def heal_all(self) -> None:
        """Lift every remaining partition (used by reconciliation drivers)."""
        healed = len(self._partitions)
        self._partitions.clear()
        if healed:
            self._count("repro_fault_partition_heals_total", amount=healed)

    # ------------------------------------------------------------- recovery

    def note_retry(self, error: BaseException) -> None:
        self._count("repro_fault_retries_total")

    def should_rerun(self, error: BaseException) -> bool:
        """Record a detected failure; grant a cold re-run if budget remains."""
        self._count("repro_fault_detected_total")
        if self._reruns_left <= 0:
            return False
        self._reruns_left -= 1
        self._count("repro_fault_cold_reruns_total")
        return True

    # -------------------------------------------------------------- plumbing

    def _count(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        amount: float = 1,
    ) -> None:
        # Get-or-create on every bump: reset_statistics clears the
        # collector's registry, so cached handles would go stale.
        self.registry.counter(name, labels).inc(amount)


class WorkerFrameInjector:
    """Worker-side injector: perturbs this shard's outgoing cross-shard frames.

    Rebuilt from ``world.fault_plan`` on every worker (re)spawn; ``start_run``
    is called on each ``start`` command, re-arming the specs whose
    ``run_index`` matches the number of runs *this worker generation* has
    seen (worlds ship once per spawn, so a cold re-run counts from zero —
    which is exactly the "the re-run is fault-free unless re-declared"
    semantics the recovery tests rely on).
    """

    def __init__(
        self, plan: FaultPlan, shard_index: int, registry: "MetricsRegistry"
    ) -> None:
        self.plan = plan
        self.shard_index = shard_index
        self.registry = registry
        self._run = -1
        # Armed entries are mutable [spec, remaining_count] pairs.
        self._armed: list[list[Any]] = []

    def start_run(self) -> None:
        self._run += 1
        self._armed = [
            [spec, spec.count]
            for spec in self.plan.frame_specs()
            if spec.run_index == self._run
            and (spec.shard is None or spec.shard == self.shard_index)
        ]

    def frame_fault(self) -> float:
        """Extra simulated latency for the next cross-shard frame.

        Consumes at most one armed fault.  A dropped frame is modelled as
        drop-plus-retransmit: the frame still arrives exactly once (keeping
        the cross-shard ledgers balanced) but pays the retransmit
        delay, and both the drop and the retry are counted.
        """
        if not self._armed:
            return 0.0
        entry = self._armed[0]
        spec: FaultSpec = entry[0]
        entry[1] -= 1
        if entry[1] <= 0:
            self._armed.pop(0)
        registry = self.registry
        registry.counter(
            "repro_fault_injected_total", {"kind": spec.kind}
        ).inc()
        if spec.kind == "drop_frame":
            registry.counter("repro_fault_frames_dropped_total").inc()
            registry.counter("repro_fault_retries_total").inc()
        else:
            registry.counter("repro_fault_frames_delayed_total").inc()
        return spec.delay
