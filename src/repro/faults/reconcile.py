"""Log-based reconciliation of divergent node databases after a heal.

While a partition is up, the two sides of a network accept different base
inserts and chase them to different fix-points.  Each side's divergence is a
change log — :meth:`Change.between
<repro.coordination.changeset.Change.between>` the common pre-partition
baseline and that side — and the logs merge with :meth:`Change.union
<repro.coordination.changeset.Change.union>` (idempotent, commutative,
associative).  The merged log is applied to every side and the update
re-run; the chase is monotone and confluent (Lemma 1), so the sides meet at
the fix-point the network would have reached had the partition never
happened.  The model is insert-only: logs carrying removed rows or rule
edits cannot be merged order-insensitively and raise a typed
:class:`~repro.errors.FaultError` instead of guessing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.coordination.changeset import Change, Snapshot
from repro.errors import FaultError

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.session import Session


def reconcile(
    sessions: "list[Session]",
    baseline: Snapshot,
    *,
    run: bool = True,
) -> Change:
    """Merge the sessions' divergence logs and bring every side up to date.

    ``baseline`` is the common pre-partition snapshot.  Each session's log is
    :meth:`Change.between` the baseline and its databases, the logs are
    merged, the merged log is applied to every session's system (the rows
    new there counted as ``repro_fault_reconciled_rows_total``), and —
    unless ``run=False`` — each session re-runs the update protocol to close
    the fix-point.  Returns the merged log.
    """
    merged = Change()
    for session in sessions:
        merged = merged.union(Change.between(baseline, session.system.databases()))
    if not merged.insert_only:
        raise FaultError(
            "log-based reconciliation is insert-only: the divergence logs "
            "record removed rows or rule changes, which cannot be merged "
            "order-insensitively"
        )
    for session in sessions:
        applied = merged.apply(session.system)
        if applied:
            session.system.stats.registry.counter(
                "repro_fault_reconciled_rows_total"
            ).inc(applied)
        if run:
            session.update()
    return merged
