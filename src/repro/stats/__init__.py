"""Statistics collection and reporting.

The paper's prototype attaches a statistical module to every node which
"accumulates information about number of executed queries and updates, total
time which was required to answer a certain query or fulfill an update
request, volumes of data transferred onto pipes, number of queries received
and sent for the same original query (due to different paths and loops)", and
a super-peer that can collect or reset those statistics.  This package is the
library counterpart used by every experiment.
"""

from repro.stats.collector import (
    MessageStats,
    NodeStats,
    StatisticsCollector,
)
from repro.stats.report import format_table, series_summary

__all__ = [
    "MessageStats",
    "NodeStats",
    "StatisticsCollector",
    "format_table",
    "series_summary",
]
