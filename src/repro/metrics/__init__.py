"""Measurement: collectors, percentiles, event counters, report tables."""

from .collector import Collector, InitiatorSummary, WindowTotals
from .events import EventCounter
from .export import read_csv, rows_for, to_row, write_csv, write_json
from .percentile import LatencyDistribution, P2Quantile, exact_percentile
from .report import (
    FairnessIndex,
    format_table,
    improvement_pct,
    jain_fairness,
    reduction_pct,
    speedup,
)

__all__ = [
    "Collector",
    "EventCounter",
    "FairnessIndex",
    "InitiatorSummary",
    "LatencyDistribution",
    "P2Quantile",
    "WindowTotals",
    "exact_percentile",
    "format_table",
    "improvement_pct",
    "jain_fairness",
    "read_csv",
    "reduction_pct",
    "rows_for",
    "speedup",
    "to_row",
    "write_csv",
    "write_json",
]
