"""Units of the fault-injection subsystem: plans, injectors, retry, reconcile.

Everything here runs in-process with no engines: the JSON round-trip and
validation of :class:`FaultPlan`/:class:`FaultSpec`, the arming/firing state
machine of the coordinator and worker injectors against fake pools, the
retry-with-backoff helper, and the change-log arithmetic the reconciliation
pass builds on.  The end-to-end behaviour (real engines, real processes)
lives in ``tests/chaos/``.
"""

import pytest

from repro.coordination.changeset import Change
from repro.errors import FaultError, NetworkError, PartitionError
from repro.faults import (
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    WorkerFrameInjector,
    injector_of,
    retry_call,
)
from repro.obs.metrics import MetricsRegistry


class FakePool:
    """The minimum pool surface the coordinator injector fires against."""

    def __init__(self, shard_count=2, hosts=None):
        self.shard_count = shard_count
        self.killed = []
        self._hosts = hosts
        if hosts is not None:
            self.host_of = lambda shard: hosts[shard % len(hosts)]

    def kill_worker(self, shard):
        self.killed.append(shard)


class TestFaultSpecValidation:
    def test_rejects_unknown_kind_and_phase(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="meteor_strike")
        with pytest.raises(FaultError):
            FaultSpec(kind="kill_worker", phase="lunch")

    def test_frame_faults_only_fire_in_chase(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="drop_frame", phase="sync")
        FaultSpec(kind="drop_frame", phase="chase")  # fine

    def test_rejects_negative_counts_and_delays(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="kill_worker", run_index=-1)
        with pytest.raises(FaultError):
            FaultSpec(kind="delay_frame", count=0)
        with pytest.raises(FaultError):
            FaultSpec(kind="delay_frame", delay=-0.1)

    def test_plan_validates_budgets(self):
        with pytest.raises(FaultError):
            FaultPlan(max_cold_reruns=-1)
        with pytest.raises(FaultError):
            FaultPlan(send_retries=-2)
        with pytest.raises(FaultError):
            FaultPlan(backoff=-0.5)


class TestFaultPlanJson:
    def test_round_trip_preserves_everything(self):
        plan = FaultPlan(
            seed=42,
            max_cold_reruns=2,
            send_retries=3,
            backoff=0.125,
            faults=[
                FaultSpec(kind="kill_worker", phase="sync", shard=1, run_index=2),
                FaultSpec(kind="drop_frame", phase="chase", count=4, delay=0.01),
                FaultSpec(kind="partition", phase="quiescence", heal_after=None),
            ],
        )
        assert FaultPlan.from_json_dict(plan.to_json_dict()) == plan

    def test_dump_and_load_paths(self, tmp_path):
        plan = FaultPlan(seed=7, faults=[FaultSpec(kind="kill_worker")])
        path = tmp_path / "plan.json"
        plan.dump_json(path)
        assert FaultPlan.load_json(path) == plan
        assert FaultPlan.load_json(path.read_text(encoding="utf-8")) == plan

    def test_rejects_unknown_fields_and_bad_format(self):
        good = FaultPlan(seed=1).to_json_dict()
        with pytest.raises(FaultError):
            FaultPlan.from_json_dict({**good, "surprise": 1})
        with pytest.raises(FaultError):
            FaultPlan.from_json_dict({**good, "format": "repro-faults/99"})
        with pytest.raises(FaultError):
            FaultSpec.from_json_dict({"kind": "kill_worker", "oops": True})
        with pytest.raises(FaultError):
            FaultSpec.from_json_dict({"phase": "chase"})  # kind is required


class TestNullInjector:
    def test_discovery_falls_back_to_the_null_injector(self):
        class Bare:
            pass

        assert injector_of(Bare()) is NULL_INJECTOR

        class WithInjector:
            fault_injector = "sentinel"

        assert injector_of(WithInjector()) == "sentinel"

    def test_null_injector_is_inert(self):
        NULL_INJECTOR.start_run()
        NULL_INJECTOR.fire("chase", FakePool())
        NULL_INJECTOR.check_partition("h:1")
        assert not NULL_INJECTOR.enabled
        assert NULL_INJECTOR.should_rerun(NetworkError("x")) is False
        assert NULL_INJECTOR.worker_plan() is None
        assert NULL_INJECTOR.retry_policy is None


class TestFaultInjector:
    def test_fires_only_armed_run_and_phase(self):
        plan = FaultPlan(
            faults=[
                FaultSpec(kind="kill_worker", phase="chase", shard=1, run_index=1)
            ]
        )
        injector = FaultInjector(plan, MetricsRegistry())
        pool = FakePool()
        injector.start_run()  # run 0: not armed
        injector.fire("chase", pool)
        assert pool.killed == []
        injector.start_run()  # run 1: armed, but only for its phase
        injector.fire("sync", pool)
        assert pool.killed == []
        injector.fire("chase", pool)
        assert pool.killed == [1]
        injector.fire("chase", pool)  # consumed at fire time
        assert pool.killed == [1]

    def test_random_victim_is_seeded(self):
        def victim(seed):
            plan = FaultPlan(
                seed=seed, faults=[FaultSpec(kind="kill_worker", phase="chase")]
            )
            injector = FaultInjector(plan, MetricsRegistry())
            pool = FakePool(shard_count=8)
            injector.start_run()
            injector.fire("chase", pool)
            return pool.killed[0]

        assert victim(123) == victim(123)
        assert any(victim(seed) != victim(123) for seed in range(10))

    def test_shard_out_of_range_is_loud(self):
        plan = FaultPlan(faults=[FaultSpec(kind="kill_worker", shard=5)])
        injector = FaultInjector(plan, MetricsRegistry())
        injector.start_run()
        with pytest.raises(FaultError):
            injector.fire("chase", FakePool(shard_count=2))

    def test_partition_needs_a_socket_pool(self):
        plan = FaultPlan(faults=[FaultSpec(kind="partition", phase="chase")])
        injector = FaultInjector(plan, MetricsRegistry())
        injector.start_run()
        with pytest.raises(FaultError, match="socket"):
            injector.fire("chase", FakePool())

    def test_partition_blocks_then_heals(self):
        plan = FaultPlan(
            faults=[
                FaultSpec(kind="partition", phase="chase", heal_after=0.05)
            ]
        )
        registry = MetricsRegistry()
        injector = FaultInjector(plan, registry)
        pool = FakePool(shard_count=1, hosts=["h:1"])
        injector.start_run()
        injector.fire("chase", pool)
        with pytest.raises(PartitionError, match="h:1"):
            injector.check_partition("h:1")
        injector.check_partition("other:2")  # unpartitioned hosts pass
        import time

        time.sleep(0.06)
        injector.check_partition("h:1")  # deadline passed: heals, no raise
        assert registry.total("repro_fault_partition_heals_total") == 1

    def test_heal_all_lifts_permanent_partitions(self):
        plan = FaultPlan(
            faults=[FaultSpec(kind="partition", phase="chase", heal_after=None)]
        )
        injector = FaultInjector(plan, MetricsRegistry())
        pool = FakePool(shard_count=1, hosts=["h:1"])
        injector.start_run()
        injector.fire("chase", pool)
        with pytest.raises(PartitionError):
            injector.check_partition("h:1")
        injector.heal_all()
        injector.check_partition("h:1")

    def test_rerun_budget_depletes(self):
        plan = FaultPlan(max_cold_reruns=2)
        registry = MetricsRegistry()
        injector = FaultInjector(plan, registry)
        error = NetworkError("boom")
        assert injector.should_rerun(error) is True
        assert injector.should_rerun(error) is True
        assert injector.should_rerun(error) is False
        assert registry.total("repro_fault_detected_total") == 3
        assert registry.total("repro_fault_cold_reruns_total") == 2

    def test_retry_policy_reflects_the_plan(self):
        assert FaultInjector(FaultPlan(), MetricsRegistry()).retry_policy is None
        policy = FaultInjector(
            FaultPlan(send_retries=3, backoff=0.2), MetricsRegistry()
        ).retry_policy
        assert policy is not None
        assert policy.attempts == 3
        assert policy.backoff == 0.2


class TestWorkerPlanRebase:
    def test_worker_plan_rebases_to_the_current_run(self):
        plan = FaultPlan(
            faults=[
                FaultSpec(kind="drop_frame", phase="chase", run_index=0),
                FaultSpec(kind="delay_frame", phase="chase", run_index=1),
                FaultSpec(kind="kill_worker", phase="chase", run_index=1),
            ]
        )
        injector = FaultInjector(plan, MetricsRegistry())
        injector.start_run()  # run 0
        shipped = injector.worker_plan()
        assert [spec.run_index for spec in shipped.faults] == [0, 1]
        injector.start_run()  # run 1: the run-0 drop is behind us
        shipped = injector.worker_plan()
        assert [(spec.kind, spec.run_index) for spec in shipped.faults] == [
            ("delay_frame", 0)
        ]
        injector.start_run()  # run 2: no frame faults left
        assert injector.worker_plan() is None

    def test_worker_plan_is_none_without_frame_faults(self):
        plan = FaultPlan(faults=[FaultSpec(kind="kill_worker")])
        injector = FaultInjector(plan, MetricsRegistry())
        injector.start_run()
        assert injector.worker_plan() is None


class TestWorkerFrameInjector:
    def test_consumes_counted_faults_in_order(self):
        plan = FaultPlan(
            faults=[
                FaultSpec(kind="drop_frame", phase="chase", count=2, delay=0.5),
                FaultSpec(kind="delay_frame", phase="chase", count=1, delay=0.25),
            ]
        )
        registry = MetricsRegistry()
        injector = WorkerFrameInjector(plan, 0, registry)
        injector.start_run()
        assert [injector.frame_fault() for _ in range(4)] == [0.5, 0.5, 0.25, 0.0]
        assert registry.total("repro_fault_frames_dropped_total") == 2
        assert registry.total("repro_fault_frames_delayed_total") == 1

    def test_filters_by_shard(self):
        plan = FaultPlan(
            faults=[FaultSpec(kind="drop_frame", phase="chase", shard=1)]
        )
        other = WorkerFrameInjector(plan, 0, MetricsRegistry())
        other.start_run()
        assert other.frame_fault() == 0.0
        target = WorkerFrameInjector(plan, 1, MetricsRegistry())
        target.start_run()
        assert target.frame_fault() > 0.0


class TestRetryCall:
    def test_returns_on_first_success_without_sleeping(self):
        policy = RetryPolicy(attempts=3, backoff=10.0)  # would be felt if slept
        assert retry_call(lambda: "ok", policy=policy) == "ok"

    def test_retries_then_succeeds(self):
        attempts = []
        noted = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise NetworkError("not yet")
            return "done"

        policy = RetryPolicy(attempts=4, backoff=0.001)
        result = retry_call(
            flaky, policy=policy, on_retry=lambda e: noted.append(e)
        )
        assert result == "done"
        assert len(attempts) == 3
        assert len(noted) == 2

    def test_exhausted_budget_reraises_the_last_error(self):
        policy = RetryPolicy(attempts=2, backoff=0.001)
        with pytest.raises(NetworkError, match="always"):
            retry_call(
                lambda: (_ for _ in ()).throw(NetworkError("always")),
                policy=policy,
            )

    def test_non_retryable_errors_pass_through_immediately(self):
        calls = []

        def bad():
            calls.append(1)
            raise ValueError("not a network problem")

        with pytest.raises(ValueError):
            retry_call(bad, policy=RetryPolicy(attempts=5, backoff=0.001))
        assert len(calls) == 1

    def test_backoff_schedule_grows_and_caps(self):
        policy = RetryPolicy(
            attempts=5, backoff=0.1, factor=2.0, max_backoff=0.3
        )
        assert policy.delays() == [0.1, 0.2, 0.3, 0.3, 0.3]

    def test_policy_validation(self):
        with pytest.raises(FaultError):
            RetryPolicy(attempts=-1)
        with pytest.raises(FaultError):
            RetryPolicy(attempts=1, backoff=-1.0)
        # Zero attempts is a valid no-retry policy: one call, no sleeps.
        assert RetryPolicy(attempts=0).delays() == []


class TestChangeUnion:
    def test_union_merges_and_canonicalises(self):
        left = Change(inserts={"a": {"r": (("1",), ("2",))}})
        right = Change(inserts={"a": {"r": (("2",), ("3",))}, "b": {"s": (("9",),)}})
        merged = left.union(right)
        assert merged.inserts["a"]["r"] == (("1",), ("2",), ("3",))
        assert merged.inserts["b"]["s"] == (("9",),)
        assert left.union(right) == right.union(left)
        assert merged.union(merged) == merged

    def test_union_keeps_removed_rows_and_rule_ids(self):
        merged = Change(removes={"a": {"r": (("1",),)}}).union(
            Change(remove_rules=("r1",))
        )
        assert merged.removes == {"a": {"r": (("1",),)}}
        assert merged.remove_rules == ("r1",)
        assert not merged.insert_only


class TestMetricsRegistryTotal:
    def test_total_sums_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"kind": "a"}).inc(2)
        registry.counter("hits", {"kind": "b"}).inc(3)
        registry.counter("other").inc(10)
        assert registry.total("hits") == 5
        assert registry.total("missing") == 0
