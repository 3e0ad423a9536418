"""The chaos matrix: fault kind × phase × engine, converge or raise — never hang.

Worker kills are injected into every coordinator-side phase of every
process-backed engine, with and without a recovery budget; cross-shard
frames are dropped and delayed inside the workers of every engine.  Each
cell asserts the one contract the fault subsystem promises:

* with recovery enabled, the run converges **bit-identical** to the
  fault-free synchronous fix-point (a detected kill degrades the run to a
  cold re-run; a dropped frame is retransmitted with its latency charged);
* with recovery declined, a fault that fires surfaces as a typed
  :class:`~repro.errors.NetworkError` — not a hang, not a wrong answer;
* the ``repro_fault_*`` counters account for what was injected and what the
  coordinator detected.

The ``sync`` phase structurally exists only on warm repeat runs, so it is
covered at the matrix tail on the pooled engine's second update instead of
in the per-run grid.
"""

import pytest

from repro.api import Session
from repro.errors import NetworkError
from repro.faults import FaultPlan, FaultSpec

# Every process-backed transport name (one ProcessEngine drives them all, so
# each must honour the same converge-or-raise contract).
ENGINES = ("multiproc", "pooled", "socket")

# Phases every engine passes through on its very first run (run_index 0):
# worlds are shipped, the chase is driven, the quiescence barrier settles.
FIRST_RUN_PHASES = ("ship", "chase", "quiescence")


class TestKillMatrix:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("phase", FIRST_RUN_PHASES)
    def test_kill_with_budget_converges_bit_identical(
        self, scenario, sync_baseline, faulted_run, chaos_seed, engine, phase
    ):
        plan = FaultPlan(
            seed=chaos_seed,
            max_cold_reruns=2,
            faults=[FaultSpec(kind="kill_worker", phase=phase, run_index=0)],
        )
        spec = scenario.with_(transport=engine, shards=2, faults=plan)
        databases, registry = faulted_run(spec)
        assert databases == sync_baseline
        assert registry.total("repro_fault_injected_total") >= 1
        # A kill the coordinator noticed must have been paid for by a cold
        # re-run; a kill landing after the phase's results were already
        # collected legitimately goes undetected — but never diverges.
        detected = registry.total("repro_fault_detected_total")
        if detected:
            assert registry.total("repro_fault_cold_reruns_total") >= 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_kill_without_budget_raises_typed_error(
        self, scenario, chaos_seed, engine
    ):
        # A chase-phase kill always lands mid-run, so with the recovery
        # budget at its zero default the run must surface a typed error.
        plan = FaultPlan(
            seed=chaos_seed,
            faults=[FaultSpec(kind="kill_worker", phase="chase", run_index=0)],
        )
        spec = scenario.with_(transport=engine, shards=2, faults=plan)
        with Session.from_spec(spec) as session:
            with pytest.raises(NetworkError):
                session.run("discovery")
                session.update()
            registry = session.system.stats.registry
            assert registry.total("repro_fault_injected_total") >= 1
            assert registry.total("repro_fault_detected_total") >= 1
            assert registry.total("repro_fault_cold_reruns_total") == 0


class TestFrameFaults:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_dropped_and_delayed_frames_keep_the_fixpoint(
        self, scenario, sync_baseline, faulted_run, chaos_seed, engine
    ):
        # Frame faults arm inside the workers during the update's chase
        # (run_index 1: discovery is the session's run 0).  A drop is
        # modelled as drop-plus-retransmit, so the quiescence barrier stays
        # balanced and the fix-point must come out bit-identical.
        plan = FaultPlan(
            seed=chaos_seed,
            faults=[
                FaultSpec(kind="drop_frame", phase="chase", run_index=1, count=1),
                FaultSpec(
                    kind="delay_frame",
                    phase="chase",
                    run_index=1,
                    count=1,
                    delay=0.02,
                ),
            ],
        )
        spec = scenario.with_(transport=engine, shards=2, faults=plan)
        databases, registry = faulted_run(spec)
        assert databases == sync_baseline
        assert registry.total("repro_fault_frames_dropped_total") >= 1
        assert registry.total("repro_fault_frames_delayed_total") >= 1


class TestSyncPhase:
    def test_sync_phase_kill_on_a_warm_pool_recovers(self, scenario, chaos_seed):
        # The sync phase only exists on a warm pool's repeat runs: run 0 is
        # discovery, run 1 spawns the pool and ships worlds, run 2 ships the
        # structural delta — and the kill lands there.
        plan = FaultPlan(
            seed=chaos_seed,
            max_cold_reruns=1,
            faults=[FaultSpec(kind="kill_worker", phase="sync", run_index=2)],
        )

        def drive(spec):
            with Session.from_spec(spec) as session:
                session.run("discovery")
                session.update()
                node = sorted(session.system.nodes)[0]
                relation = sorted(session.system.node(node).database.facts())[0]
                arity = len(
                    next(
                        schema
                        for schema in session.system.node(node).database.schema
                        if schema.name == relation
                    ).attributes
                )
                session.system.node(node).database.insert(
                    relation, tuple(f"warm-{k}" for k in range(arity))
                )
                session.update()
                return (
                    session.system.databases(),
                    session.system.stats.registry,
                )

        reference, _ = drive(scenario)
        databases, registry = drive(
            scenario.with_(transport="pooled", shards=2, faults=plan)
        )
        assert databases == reference
        assert registry.total("repro_fault_injected_total") >= 1
        assert registry.total("repro_fault_cold_reruns_total") >= 1
