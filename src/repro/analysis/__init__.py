"""Static pre-flight analysis of coordination-rule networks.

The paper's update algorithms (A4–A6) always terminate on *well-behaved*
networks, but a pathological rule set — mutually recursive existential
imports — can keep the chase alive for hours before the projection check
catches up.  Running the fix-point is the wrong way to find that out.  This
package is the corresponding "network linter": a purely static pass over a
:class:`~repro.api.spec.ScenarioSpec` that proves termination (weak
acyclicity over a position-level dependency graph), rule safety, schema
consistency, reachability and shard-plan quality *before* any engine spawns
a worker — milliseconds instead of minutes.

Public surface:

* :func:`~repro.analysis.analyzer.analyze` — run every check over a spec and
  return an :class:`~repro.analysis.diagnostics.AnalysisReport`,
* :class:`~repro.analysis.diagnostics.Diagnostic` /
  :class:`~repro.analysis.diagnostics.AnalysisReport` /
  :class:`~repro.analysis.diagnostics.Severity` — the result types,
* :func:`~repro.analysis.positions.build_position_graph` /
  :func:`~repro.analysis.positions.is_weakly_acyclic` — the termination
  machinery, reusable on bare rule lists,
* ``python -m repro lint scenario.json`` — the CLI front end;
  :meth:`Session.from_spec <repro.api.session.Session.from_spec>` runs the
  same checks as a pre-run gate (disable with ``check=False``).

The diagnostic-code reference lives in ``docs/analysis.md``.
"""

from repro.analysis.analyzer import analyze, analyze_parts
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.positions import (
    PositionGraph,
    build_position_graph,
    existential_cycles,
    is_weakly_acyclic,
)

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "PositionGraph",
    "analyze",
    "analyze_parts",
    "build_position_graph",
    "existential_cycles",
    "is_weakly_acyclic",
]
