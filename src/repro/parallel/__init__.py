"""Parallel sweep/campaign runner (``repro.parallel``).

The engine sustains millions of events per second on one core; the next
order of magnitude in sweep throughput is across cores.  This package
fans independent work units — figure sweep points, fuzz-seed blocks,
fault-matrix cells, registered scenario programs — out to worker
processes, each running its own :class:`~repro.simcore.engine.Environment`,
and merges the results deterministically: merge order is keyed by
work-unit id, never by completion order, so a parallel campaign's output
is byte-for-byte identical to a serial one (the differential test suite
pins this under shuffled completion order and worker crash/retry).
"""

from .pool import (
    MAX_WORKERS,
    CampaignResult,
    merge_results,
    run_units,
)
from .sweeps import (
    FAULT_MATRIX,
    FUZZ_CHUNK_SIZE,
    FaultMatrixCell,
    fault_matrix_units,
    fig7_units,
    fig8_units,
    fig9_units,
    fuzz_units,
    program_units,
    run_fault_matrix_parallel,
    run_programs_parallel,
)
from .units import (
    KIND_FIG8_CURVE,
    KIND_FIG9_POINT,
    KIND_FUZZ_BLOCK,
    KIND_PROGRAM,
    KIND_SCENARIO,
    UnitResult,
    WorkUnit,
    execute_unit,
    known_kinds,
    register_executor,
    unregister_executor,
)

__all__ = [
    "CampaignResult",
    "FAULT_MATRIX",
    "FUZZ_CHUNK_SIZE",
    "FaultMatrixCell",
    "KIND_FIG8_CURVE",
    "KIND_FIG9_POINT",
    "KIND_FUZZ_BLOCK",
    "KIND_PROGRAM",
    "KIND_SCENARIO",
    "MAX_WORKERS",
    "UnitResult",
    "WorkUnit",
    "execute_unit",
    "fault_matrix_units",
    "fig7_units",
    "fig8_units",
    "fig9_units",
    "fuzz_units",
    "known_kinds",
    "merge_results",
    "program_units",
    "register_executor",
    "run_fault_matrix_parallel",
    "run_programs_parallel",
    "run_units",
    "unregister_executor",
]
