"""Unit tests for the statistics collector and the report helpers."""

import pytest
from memory_driver import DrivenPool, MemoryDriver

import repro.stats.collector as collector_module
from repro.api import ScenarioSpec
from repro.coordination.changeset import Change
from repro.database.schema import RelationSchema
from repro.sharding.planner import ShardPlan
from repro.sharding.worker import _worlds_from_system
from repro.stats.collector import StatisticsCollector
from repro.stats.report import format_table, series_summary


class TestStatisticsCollector:
    def test_record_message_updates_totals_and_per_node(self):
        stats = StatisticsCollector()
        stats.record_message("query", "A", "B", 100)
        stats.record_message("answer", "B", "A", 300)
        snapshot = stats.snapshot()
        assert snapshot.total_messages == 2
        assert snapshot.messages.total_bytes == 400
        assert snapshot.messages.by_type["query"] == 1
        assert snapshot.nodes["A"].messages_sent == 1
        assert snapshot.nodes["A"].messages_received == 1

    def test_record_query_and_duplicates(self):
        stats = StatisticsCollector()
        stats.record_query("A")
        stats.record_query("A", duplicate=True)
        snapshot = stats.snapshot()
        assert snapshot.total_queries_executed == 2
        assert snapshot.total_duplicate_queries == 1

    def test_record_update_accumulates_tuples(self):
        stats = StatisticsCollector()
        stats.record_update("A", received=10, inserted=4)
        stats.record_update("A", received=5, inserted=0)
        snapshot = stats.snapshot()
        assert snapshot.total_tuples_transferred == 15
        assert snapshot.total_tuples_inserted == 4
        assert snapshot.nodes["A"].updates_applied == 2

    def test_advance_time_is_monotone(self):
        stats = StatisticsCollector()
        stats.advance_time(5.0)
        stats.advance_time(3.0)
        assert stats.simulated_time == 5.0

    def test_snapshot_is_independent_of_later_updates(self):
        stats = StatisticsCollector()
        stats.record_query("A")
        snapshot = stats.snapshot()
        stats.record_query("A")
        assert snapshot.total_queries_executed == 1

    def test_reset_clears_everything(self):
        stats = StatisticsCollector()
        stats.record_message("query", "A", "B", 10)
        stats.advance_time(4.0)
        stats.reset()
        snapshot = stats.snapshot()
        assert snapshot.total_messages == 0
        assert snapshot.simulated_time == 0.0
        assert snapshot.nodes == {}


class TestShipCounters:
    """What a shard worker sends home after each run: the counters that
    moved, zeroed in place so every cached handle stays valid."""

    @staticmethod
    def record_run(stats, *, answers):
        stats.record_message("query", "A", "B", 10)
        for _ in range(answers):
            stats.record_message("answer", "B", "A", 30)
        stats.record_update("A", received=3, inserted=answers)
        stats.record_incremental("A", seed_rows=1, pushes=answers)

    def test_only_what_moved_ships_and_restarts_from_zero(self):
        stats = StatisticsCollector()
        self.record_run(stats, answers=0)
        counters = dict(stats.registry.counters)
        shipped = stats.ship_counters()["counters"]
        assert sorted(shipped) == [
            ("repro_incremental_seed_rows_total", (("node", "A"),), 1),
            ("repro_message_bytes_total", (("type", "query"),), 10),
            ("repro_messages_total", (("type", "query"),), 1),
            ("repro_node_messages_received_total", (("node", "B"),), 1),
            ("repro_node_messages_sent_total", (("node", "A"),), 1),
            ("repro_node_tuples_received_total", (("node", "A"),), 3),
            ("repro_node_updates_applied_total", (("node", "A"),), 1),
        ]
        # The very same counters, zeroed, and nothing else in the registry.
        assert stats.registry.counters == counters
        assert all(counter.value == 0 for counter in counters.values())
        assert set(stats.incremental_totals().values()) == {0}
        assert stats.snapshot().total_messages == 0

        self.record_run(stats, answers=2)
        assert all(
            stats.registry.counters[key] is counter for key, counter in counters.items()
        )
        assert all(value for _name, _labels, value in stats.ship_counters()["counters"])

    def test_merged_shipments_equal_recording_in_one_place(self):
        worker, direct, coordinator = (StatisticsCollector() for _ in range(3))
        for answers in (0, 2, 1):
            for stats in (worker, direct):
                self.record_run(stats, answers=answers)
            coordinator.merge_counters(worker.ship_counters())
        merged, expected = coordinator.snapshot(), direct.snapshot()
        assert merged.messages == expected.messages
        assert merged.nodes == expected.nodes
        assert coordinator.incremental_totals() == direct.incremental_totals()

    def test_a_warm_worker_builds_each_peers_handles_once(self, monkeypatch):
        """A worker's report used to reset its registry, so every warm run
        looked up the seven counters of each peer it touched again."""
        built = []  # (worker registry, peer) per _NodeHandles built
        init = collector_module._NodeHandles.__init__

        def counting_init(self, registry, node_id):
            built.append((id(registry), node_id))
            init(self, registry, node_id)

        monkeypatch.setattr(collector_module._NodeHandles, "__init__", counting_init)
        peers = ["p0", "p1", "p2", "p3"]
        rules = [f"r{i}: p{i + 1}: item(X, Y) -> p{i}: item(X, Y)" for i in range(3)]
        spec = ScenarioSpec.of(
            {peer: [RelationSchema("item", ["x", "y"])] for peer in peers},
            rules,
            {peer: {"item": [(peer, "y")]} for peer in peers},
        )
        plan = ShardPlan(2, {peer: index % 2 for index, peer in enumerate(peers)})
        worlds = _worlds_from_system(spec.build_system(), plan)
        driver = MemoryDriver(worlds, lambda count: 0)
        pool = DrivenPool(driver, plan, worlds)
        pool.run_phase("discovery", None)
        pool.run_phase("update", None)
        cold = sorted(built)
        # A worker also counts the remote senders of what it delivers.
        assert {peer for _registry, peer in cold} == set(peers)
        for index in range(3):
            change = Change(inserts={"p3": {"item": ((f"new{index}", "y"),)}})
            payloads = pool.run_phase("update", None, change=change)
            assert sum(p["delivered"] for p in payloads) == 3
            shipped = [
                counter
                for payload in payloads
                for counter in payload["counters"]["counters"]
            ]
            assert shipped and all(value for _name, _labels, value in shipped)
        assert sorted(built) == cold and len(set(cold)) == len(cold)
        rows = driver.workers[0].system.node("p0").database.relation("item")
        assert {("new0", "y"), ("new1", "y"), ("new2", "y")} <= set(rows)


class TestChaseHandles:
    """The six A6 counters a traced system's databases bump: plain registry
    counters, so they ship, merge, reset and export like every other one."""

    def test_the_handles_are_cached_registry_counters(self):
        stats = StatisticsCollector()
        chase = stats.chase_handles()
        assert stats.chase_handles() is chase
        chase.calls.inc(2)
        chase.rows_inserted.inc(5)
        assert stats.registry.total("repro_chase_calls_total") == 2
        assert stats.registry.total("repro_chase_rows_inserted_total") == 5
        assert len(chase.values()) == 6

    def test_a_reset_rebinds_the_same_handles_to_fresh_counters(self):
        stats = StatisticsCollector()
        chase = stats.chase_handles()
        chase.calls.inc(3)
        stats.reset()
        assert stats.chase_handles() is chase
        assert chase.values() == [0] * 6
        chase.calls.inc()
        assert stats.registry.total("repro_chase_calls_total") == 1

    def test_attributes_since_are_the_run_delta_under_a6_names(self):
        chase = StatisticsCollector().chase_handles()
        chase.calls.inc(4)
        before = chase.values()
        chase.calls.inc(3)
        chase.wall_seconds.inc(0.12345678)
        deltas = chase.attributes_since(before)
        assert set(deltas) == {
            "a6_calls",
            "a6_projection_checks",
            "a6_candidates_scanned",
            "a6_skipped_by_projection",
            "a6_rows_inserted",
            "a6_wall_seconds",
        }
        assert deltas["a6_calls"] == 3
        assert deltas["a6_rows_inserted"] == 0
        assert deltas["a6_wall_seconds"] == 0.123457

    def test_a_workers_chase_counters_ship_home_and_restart_from_zero(self):
        worker, coordinator = StatisticsCollector(), StatisticsCollector()
        home = coordinator.chase_handles()
        for calls in (2, 1):
            worker.chase_handles().calls.inc(calls)
            coordinator.merge_counters(worker.ship_counters())
            assert worker.chase_handles().values() == [0] * 6
        assert home.calls.value == 3
        assert coordinator.registry.total("repro_chase_calls_total") == 3


class TestFormatTable:
    def test_basic_rendering(self):
        table = format_table(["a", "b"], [[1, "xx"], [22, "y"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_floats_are_rounded(self):
        table = format_table(["v"], [[1.23456]])
        assert "1.235" in table

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestSeriesSummary:
    def test_perfect_line(self):
        fit = series_summary([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit["slope"] == pytest.approx(2.0)
        assert fit["intercept"] == pytest.approx(1.0)
        assert fit["r_squared"] == pytest.approx(1.0)

    def test_constant_series_has_r_squared_one(self):
        fit = series_summary([1, 2, 3], [5, 5, 5])
        assert fit["slope"] == pytest.approx(0.0)
        assert fit["r_squared"] == pytest.approx(1.0)

    def test_noisy_series_reduces_r_squared(self):
        fit = series_summary([1, 2, 3, 4], [3, 9, 4, 10])
        assert fit["r_squared"] < 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            series_summary([1], [1])
        with pytest.raises(ValueError):
            series_summary([1, 2], [1])
        with pytest.raises(ValueError):
            series_summary([2, 2], [1, 3])
