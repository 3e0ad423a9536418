"""The library's front door: sessions, engines, strategies, specs.

This package is the unified execution façade over the substrate in
:mod:`repro.core`:

* :class:`~repro.api.session.Session` — engine-agnostic runs
  (``session.run("discovery")``) and strategy-pluggable updates
  (``session.update(strategy="centralized")``),
* :class:`~repro.api.engine.ExecutionEngine` with
  :class:`~repro.api.engine.SyncEngine`,
* :class:`~repro.api.strategies.UpdateStrategy` and its string-keyed registry
  (``"distributed"``, ``"centralized"``, ``"acyclic"``, ``"querytime"``),
* :class:`~repro.api.spec.ScenarioSpec` / :class:`~repro.api.spec.NetworkBuilder`
  — declarative and fluent network construction (JSON format in
  ``docs/scenarios.md``),
* :class:`~repro.api.result.RunResult` — the uniform result of every run.

The scaling engines (multiproc, pooled, socket) live in
:mod:`repro.sharding` and plug into the same protocol; ``Session`` selects
them from the spec's ``transport``/``shards``/``pool`` knobs
(``docs/engines.md`` is the guide).

Every spec goes through the static pre-flight analyzer
(:mod:`repro.analysis`) before :meth:`Session.from_spec
<repro.api.session.Session.from_spec>` builds anything: error-level
diagnostics raise, warnings ride along on the results (``check=False``
opts out; ``docs/analysis.md`` lists the diagnostic codes).
"""

from repro.api.engine import (
    PHASES,
    ExecutionEngine,
    SyncEngine,
    engine_for,
)
from repro.api.result import RunResult, diff_snapshots
from repro.api.session import Session, preflight_enabled, set_default_preflight
from repro.api.spec import NetworkBuilder, ScenarioSpec
from repro.api.strategies import (
    UpdateStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)

__all__ = [
    "PHASES",
    "ExecutionEngine",
    "SyncEngine",
    "engine_for",
    "RunResult",
    "diff_snapshots",
    "Session",
    "preflight_enabled",
    "set_default_preflight",
    "NetworkBuilder",
    "ScenarioSpec",
    "UpdateStrategy",
    "available_strategies",
    "get_strategy",
    "register_strategy",
]
