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

The engines are the partitioned rows of the shared table
(``tests/engines.py``): one ``ProcessEngine`` drives them all, so each must
honour the same contract.  The socket rows run on the test session's shard
hosts; a killed socket worker severs its link, and the host survives.
"""

import time

import pytest

from repro.api import Session
from repro.errors import NetworkError
from repro.faults import FaultPlan, FaultSpec
from engines import PARTITIONED

# Phases every engine passes through on its very first run (run_index 0):
# worlds are shipped, the chase is driven, the quiescence barrier settles.
FIRST_RUN_PHASES = ("ship", "chase", "quiescence")


def drive_warm(spec):
    """Discovery, an update, a fresh row at the first peer and a second
    update on one session; return the databases, the metrics registry and
    the engine's pool after each update."""
    with Session.from_spec(spec) as session:
        session.run("discovery")
        session.update()
        pools = [getattr(session.engine, "pool", None)]
        database = session.system.node(min(session.system.nodes)).database
        relation = database.relation(sorted(database.facts())[0])
        relation.insert(tuple(f"warm-{k}" for k in range(relation.schema.arity)))
        session.update()
        pools.append(getattr(session.engine, "pool", None))
        return session.system.databases(), session.system.stats.registry, pools


class TestKillMatrix:
    @pytest.mark.parametrize("engine", PARTITIONED)
    @pytest.mark.parametrize("phase", FIRST_RUN_PHASES)
    def test_kill_with_budget_converges_bit_identical(
        self, scenario, sync_baseline, faulted_run, chaos_seed, engine, phase, on_engine
    ):
        plan = FaultPlan(
            seed=chaos_seed,
            max_cold_reruns=2,
            faults=[FaultSpec(kind="kill_worker", phase=phase, run_index=0)],
        )
        databases, registry = faulted_run(on_engine(scenario, engine, faults=plan))
        assert databases == sync_baseline
        assert registry.total("repro_fault_injected_total") >= 1
        # A kill the coordinator noticed must have been paid for by a cold
        # re-run; a kill landing after the phase's results were already
        # collected legitimately goes undetected — but never diverges.
        detected = registry.total("repro_fault_detected_total")
        if detected:
            assert registry.total("repro_fault_cold_reruns_total") >= 1

    @pytest.mark.parametrize("engine", PARTITIONED)
    def test_kill_without_budget_raises_typed_error(
        self, scenario, chaos_seed, engine, on_engine
    ):
        # A chase-phase kill always lands mid-run, so with the recovery
        # budget at its zero default the run must surface a typed error.
        plan = FaultPlan(
            seed=chaos_seed,
            faults=[FaultSpec(kind="kill_worker", phase="chase", run_index=0)],
        )
        with Session.from_spec(on_engine(scenario, engine, faults=plan)) as session:
            with pytest.raises(NetworkError):
                session.run("discovery")
                session.update()
            assert session.engine.pool is None  # a failed run drops its pool
            registry = session.system.stats.registry
            assert registry.total("repro_fault_injected_total") >= 1
            assert registry.total("repro_fault_detected_total") >= 1
            assert registry.total("repro_fault_cold_reruns_total") == 0

    @pytest.mark.parametrize(
        "engine, severed",
        [
            ("pooled", r"shard \d worker"),
            ("socket", "link to shard host .* lost"),
        ],
        ids=["pooled", "socket"],
    )
    def test_a_worker_killed_mid_run_fails_the_run_at_once(
        self, scenario, chaos_seed, engine, severed, on_engine
    ):
        # A warm run (run 2: discovery and an update came first) whose
        # worker dies in the chase: its closed pipe or severed link is the
        # error, not a liveness poll after an idle second.
        plan = FaultPlan(
            seed=chaos_seed,
            faults=[FaultSpec(kind="kill_worker", phase="chase", run_index=2)],
        )
        with Session.from_spec(on_engine(scenario, engine, faults=plan)) as session:
            session.run("discovery")
            session.update()
            started = time.monotonic()
            with pytest.raises(NetworkError, match=severed) as failure:
                session.update()
            assert time.monotonic() - started < 0.25
            assert "Bad file descriptor" not in str(failure.value)

    @pytest.mark.parametrize("engine", PARTITIONED)
    @pytest.mark.parametrize("phase", FIRST_RUN_PHASES)
    def test_the_pool_a_recovery_brings_up_serves_the_warm_runs_after_it(
        self, scenario, chaos_seed, engine, phase, on_engine
    ):
        # Workers live as long as the session: once a kill in the first run
        # is recovered, both updates after it run on one pool and match the
        # fault-free runs.
        plan = FaultPlan(
            seed=chaos_seed,
            max_cold_reruns=2,
            faults=[FaultSpec(kind="kill_worker", phase=phase, run_index=0)],
        )
        reference, _, _ = drive_warm(scenario)
        databases, registry, pools = drive_warm(
            on_engine(scenario, engine, faults=plan)
        )
        assert databases == reference
        assert registry.total("repro_fault_injected_total") >= 1
        assert pools[0] is not None and pools[1] is pools[0]


class TestFrameFaults:
    @pytest.mark.parametrize("engine", PARTITIONED)
    def test_dropped_and_delayed_frames_keep_the_fixpoint(
        self, scenario, sync_baseline, faulted_run, chaos_seed, engine, on_engine
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
        databases, registry = faulted_run(on_engine(scenario, engine, faults=plan))
        assert databases == sync_baseline
        assert registry.total("repro_fault_frames_dropped_total") >= 1
        assert registry.total("repro_fault_frames_delayed_total") >= 1


class TestSyncPhase:
    def test_sync_phase_kill_on_a_warm_pool_recovers(
        self, scenario, chaos_seed, on_engine
    ):
        # The sync phase only exists on a warm pool's repeat runs: run 0 is
        # discovery, run 1 spawns the pool and ships worlds, run 2 ships the
        # structural delta — and the kill lands there.
        plan = FaultPlan(
            seed=chaos_seed,
            max_cold_reruns=1,
            faults=[FaultSpec(kind="kill_worker", phase="sync", run_index=2)],
        )

        reference, _, _ = drive_warm(scenario)
        databases, registry, _ = drive_warm(on_engine(scenario, "pooled", faults=plan))
        assert databases == reference
        assert registry.total("repro_fault_injected_total") >= 1
        assert registry.total("repro_fault_cold_reruns_total") >= 1
