"""Partitions on the socket engine: heal under backoff, or raise — never hang.

A partition is simulated at the coordinator's send gate: the TCP link to the
victim host stays intact, but every send to it raises
:class:`~repro.errors.PartitionError` until the plan's ``heal_after``
deadline passes.  With a retry budget on the transport, sends back off and
succeed once the partition heals, and the run converges bit-identical to
the fault-free fix-point.  Without a heal, the typed error must surface
through the engine within the retry budget — bounded time, no hang, no
silent divergence.
"""

import pytest

from repro.api import Session
from repro.errors import PartitionError, ReproError
from repro.faults import FaultPlan, FaultSpec


class TestPartitionHeal:
    def test_heals_under_retry_backoff_and_converges(
        self, scenario, sync_baseline, faulted_run, chaos_seed
    ):
        plan = FaultPlan(
            seed=chaos_seed,
            send_retries=6,
            backoff=0.1,
            faults=[
                FaultSpec(
                    kind="partition",
                    phase="quiescence",
                    run_index=1,
                    heal_after=0.3,
                )
            ],
        )
        spec = scenario.with_(transport="socket", shards=2, faults=plan)
        databases, registry = faulted_run(spec)
        assert databases == sync_baseline
        assert registry.total("repro_fault_partitions_total") >= 1
        assert registry.total("repro_fault_partition_heals_total") >= 1
        assert registry.total("repro_fault_retries_total") >= 1

    def test_chase_phase_partition_also_heals(
        self, scenario, sync_baseline, faulted_run, chaos_seed
    ):
        plan = FaultPlan(
            seed=chaos_seed,
            send_retries=6,
            backoff=0.1,
            faults=[
                FaultSpec(
                    kind="partition",
                    phase="chase",
                    run_index=1,
                    heal_after=0.2,
                )
            ],
        )
        spec = scenario.with_(transport="socket", shards=2, faults=plan)
        databases, registry = faulted_run(spec)
        assert databases == sync_baseline
        assert registry.total("repro_fault_partition_heals_total") >= 1


class TestPermanentPartition:
    def test_raises_partition_error_within_the_retry_budget(
        self, scenario, chaos_seed
    ):
        plan = FaultPlan(
            seed=chaos_seed,
            send_retries=2,
            backoff=0.02,
            faults=[
                FaultSpec(
                    kind="partition",
                    phase="quiescence",
                    run_index=1,
                    heal_after=None,
                )
            ],
        )
        spec = scenario.with_(transport="socket", shards=2, faults=plan)
        with Session.from_spec(spec) as session:
            with pytest.raises(PartitionError, match="partitioned"):
                session.run("discovery")
                session.update()
            registry = session.system.stats.registry
            assert registry.total("repro_fault_partitions_total") >= 1
            assert registry.total("repro_fault_partition_heals_total") == 0
            # The retry budget was spent before the error surfaced.
            assert registry.total("repro_fault_retries_total") >= 1

    def test_partition_kind_demands_the_socket_transport(
        self, scenario, chaos_seed
    ):
        plan = FaultPlan(
            seed=chaos_seed,
            faults=[FaultSpec(kind="partition", run_index=1, phase="quiescence")],
        )
        with pytest.raises(ReproError, match="socket"):
            Session.from_spec(
                scenario.with_(transport="pooled", shards=2, faults=plan)
            )
