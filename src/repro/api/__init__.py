"""The library's front door: sessions, engines, strategies, specs.

This package is the unified execution façade over the substrate in
:mod:`repro.core`:

* :class:`~repro.api.session.Session` — engine-agnostic runs
  (``session.run("discovery")``) and updates by any of four strategies
  (``session.update(strategy="centralized")``),
* :class:`~repro.api.engine.ExecutionEngine` with
  :class:`~repro.api.engine.SyncEngine`,
* :class:`~repro.api.strategies.UpdateStrategy` and its fixed table of four
  (``"distributed"``, ``"centralized"``, ``"acyclic"``, ``"querytime"``),
* :class:`~repro.api.spec.ScenarioSpec` — the one description of a network;
  its ``build_system()`` is the one place a network is assembled (JSON format
  in ``docs/scenarios.md``),
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
from repro.api.result import RunResult
from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.api.strategies import (
    UpdateStrategy,
    available_strategies,
    get_strategy,
)

__all__ = [
    "PHASES",
    "ExecutionEngine",
    "SyncEngine",
    "engine_for",
    "RunResult",
    "Session",
    "ScenarioSpec",
    "UpdateStrategy",
    "available_strategies",
    "get_strategy",
]
