"""Workload generators: perf-style closed loops, tenant mixes, h5bench."""

from .mixes import (
    LS_QUEUE_DEPTH,
    PAPER_RATIOS,
    TC_QUEUE_DEPTH,
    TenantSpec,
    parse_ratio,
    tenants_for_ratio,
)
from .patterns import AddressPattern, RANDOM, SEQUENTIAL
from .perf import READ, RW50, WRITE, PerfConfig, PerfGenerator
from .replay import TraceRecordEntry, TraceReplayer, load_trace, save_trace, synthesize_trace

__all__ = [
    "AddressPattern",
    "LS_QUEUE_DEPTH",
    "PAPER_RATIOS",
    "PerfConfig",
    "PerfGenerator",
    "RANDOM",
    "READ",
    "RW50",
    "SEQUENTIAL",
    "TC_QUEUE_DEPTH",
    "TenantSpec",
    "TraceRecordEntry",
    "TraceReplayer",
    "WRITE",
    "load_trace",
    "parse_ratio",
    "save_trace",
    "synthesize_trace",
    "tenants_for_ratio",
]
