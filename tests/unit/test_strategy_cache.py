"""Session-level memoization of the reference fix-points (ROADMAP item)."""

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import rule_from_text
from repro.workloads.topologies import tree_topology


def tree_session() -> Session:
    spec = ScenarioSpec.from_topology(tree_topology(2, 2), records_per_node=6, seed=3)
    return Session.from_spec(spec)


class TestStrategyCache:
    def test_second_reference_update_is_served_from_cache(self):
        session = tree_session()
        first = session.update("centralized")
        second = session.update("centralized")
        assert "cache_hit" not in first.extras
        assert second.extras["cache_hit"] is True
        assert second.ground_databases() == first.ground_databases()
        assert session.cache_info()["hits"] == 1
        assert session.cache_info()["misses"] == 1

    def test_different_strategies_cache_separately(self):
        session = tree_session()
        session.update("centralized")
        acyclic = session.update("acyclic")
        assert "cache_hit" not in acyclic.extras
        assert session.cache_info()["size"] == 2

    def test_different_options_cache_separately(self):
        session = tree_session()
        session.update("querytime", node="n00")
        miss = session.update("querytime", node="n01")
        hit = session.update("querytime", node="n00")
        assert "cache_hit" not in miss.extras
        assert hit.extras["cache_hit"] is True

    def test_distributed_strategy_never_caches(self):
        session = tree_session()
        session.run("discovery")
        session.update()
        second = session.update()
        assert "cache_hit" not in second.extras
        assert session.cache_info()["size"] == 0

    def test_data_change_invalidates(self):
        session = tree_session()
        session.update("centralized")
        # A distributed run materialises imports, changing the data
        # fingerprint; the next reference update must recompute.
        session.run("discovery")
        session.update()
        recomputed = session.update("centralized")
        assert "cache_hit" not in recomputed.extras

    def test_add_rule_invalidates(self):
        # addLink installs a rule at run time (Section 4); the rules part of
        # the fingerprint changes, so cached fix-points are never served
        # against the new rule set.
        session = tree_session()
        session.update("centralized")
        session.system.add_rule(
            rule_from_text(
                "extra", "n03: pub(K, TI, AU, YR, VE) -> n00: pub(K, TI, AU, YR, VE)"
            )
        )
        recomputed = session.update("centralized")
        assert "cache_hit" not in recomputed.extras

    def test_remove_rule_invalidates(self):
        session = tree_session()
        session.update("centralized")
        rule_id = session.rules()[0].rule_id
        session.system.remove_rule(rule_id)
        recomputed = session.update("centralized")
        assert "cache_hit" not in recomputed.extras

    def test_clear_strategy_cache(self):
        session = tree_session()
        session.update("centralized")
        session.clear_strategy_cache()
        recomputed = session.update("centralized")
        assert "cache_hit" not in recomputed.extras

    def test_cache_is_bounded(self):
        session = tree_session()
        session._CACHE_LIMIT = 2
        session.update("querytime", node="n00")
        session.update("querytime", node="n01")
        session.update("querytime", node="n02")
        assert session.cache_info()["size"] == 2
        # n00 was evicted (LRU); n02 is still warm.
        hit = session.update("querytime", node="n02")
        assert hit.extras["cache_hit"] is True
        miss = session.update("querytime", node="n00")
        assert "cache_hit" not in miss.extras
