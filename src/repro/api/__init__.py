"""The library's front door: sessions, engines, specs, results.

This package is the unified execution façade over the substrate in
:mod:`repro.core`:

* :class:`~repro.api.session.Session` — engine-agnostic runs of the
  paper's two phases (``session.run("discovery")``, ``session.update()``),
* :class:`~repro.api.engine.ExecutionEngine` with
  :class:`~repro.api.engine.SyncEngine`,
* :class:`~repro.api.spec.ScenarioSpec` — the one description of a network;
  its ``build_system()`` is the one place a network is assembled (JSON format
  in ``docs/scenarios.md``),
* :class:`~repro.api.result.RunResult` — the uniform result of every run.

The scaling engines (pooled, socket) live in :mod:`repro.sharding` and plug
into the same protocol; ``Session`` selects them from the spec's
``transport``/``shards``/``hosts`` knobs
(``docs/engines.md`` is the guide).

Every spec goes through the static pre-flight analyzer
(:mod:`repro.analysis`) before :meth:`Session.from_spec
<repro.api.session.Session.from_spec>` builds anything: error-level
diagnostics raise, warnings ride along on the results (``check=False``
opts out; ``docs/analysis.md`` lists the diagnostic codes).

The baselines the paper compares its update with (the centralized global
algorithm, one acyclic pass, query-time answering) are plain functions of
:mod:`repro.baselines` over a spec's schemas, rules and data.
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

__all__ = [
    "PHASES",
    "ExecutionEngine",
    "SyncEngine",
    "engine_for",
    "RunResult",
    "Session",
    "ScenarioSpec",
]
