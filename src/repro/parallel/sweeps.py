"""Experiment grids as work units: figures, fuzz campaigns, programs.

Each ``*_units`` builder is the one definition of its experiment's grid:
the loop order, the per-cell knob derivations (e.g. ``select_window``) and
the unit ids.  ``repro.experiments.run_fig7`` / ``run_fig8`` / ``run_fig9``
/ ``run_fuzz`` run these units through :func:`~repro.parallel.pool.run_units`
(``workers=0`` in-process, ``workers>=1`` on a process pool) and rebuild
their result types from the merged results, so serial and pooled runs
share one code path and merge bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.window import select_window
from ..errors import ConfigError
from ..faults.recovery import RetryPolicy
from ..faults.schedule import FaultSchedule
from ..scenarios.compiler import ProgramRunEnvelope
from ..scenarios.library import register_library_programs
from ..scenarios.program import DEFAULT_REGISTRY, ProgramRegistry
from .pool import run_units
from .units import (
    KIND_FIG8_CURVE,
    KIND_FIG9_POINT,
    KIND_FUZZ_BLOCK,
    KIND_PROGRAM,
    KIND_SCENARIO,
    WorkUnit,
)

#: Default seeds-per-unit for parallel fuzz campaigns: big enough to
#: amortize process dispatch, small enough to load-balance 8 workers.
FUZZ_CHUNK_SIZE = 16


# -- Figure 7 -----------------------------------------------------------------


def fig7_units(
    ratios: Optional[Sequence[str]] = None,
    speeds: Optional[Sequence[float]] = None,
    mixes: Sequence[str] = ("read", "rw50", "write"),
    total_ops: int = 600,
    seed: int = 1,
    auto_window: bool = True,
) -> List[WorkUnit]:
    """One unit per Figure-7 cell and protocol, in the figure's row order."""
    from ..experiments.calibration import NETWORK_SPEEDS
    from ..workloads.mixes import PAPER_RATIOS

    ratios = list(ratios if ratios is not None else PAPER_RATIOS)
    speeds = list(speeds if speeds is not None else NETWORK_SPEEDS)
    units: List[WorkUnit] = []
    for op_mix in mixes:
        for gbps in speeds:
            for ratio in ratios:
                n_tc = int(ratio.split(":")[1])
                window = (
                    select_window(
                        "mixed" if op_mix == "rw50" else op_mix,
                        gbps,
                        tc_initiators=max(1, n_tc),
                    )
                    if auto_window
                    else 32
                )
                for protocol in ("spdk", "nvme-opf"):
                    units.append(
                        WorkUnit(
                            unit_id=f"fig7/{op_mix}/{gbps:g}G/{ratio}/{protocol}",
                            kind=KIND_SCENARIO,
                            payload={
                                "config": {
                                    "protocol": protocol,
                                    "network_gbps": gbps,
                                    "op_mix": op_mix,
                                    "total_ops": total_ops,
                                    "window_size": window,
                                    "seed": seed,
                                },
                                "ratio": ratio,
                                "meta": {
                                    "ratio": ratio,
                                    "network_gbps": gbps,
                                    "op_mix": op_mix,
                                    "protocol": protocol,
                                },
                            },
                        )
                    )
    return units


# -- Figure 8 -----------------------------------------------------------------


def fig8_units(
    mixes: Sequence[str] = ("read", "rw50", "write"),
    patterns: Sequence[int] = (1, 2),
    n_node_pairs: int = 5,
    per_node_range: Optional[List[int]] = None,
    pairs_range: Optional[List[int]] = None,
    total_ops: int = 600,
    seed: int = 1,
) -> List[WorkUnit]:
    """One unit per Figure-8 curve (one protocol of one panel)."""
    units: List[WorkUnit] = []
    for op_mix in mixes:
        for pattern in patterns:
            for protocol in ("spdk", "nvme-opf"):
                units.append(
                    WorkUnit(
                        unit_id=f"fig8/{op_mix}/p{pattern}/{protocol}",
                        kind=KIND_FIG8_CURVE,
                        payload={
                            "pattern": pattern,
                            "protocol": protocol,
                            "op_mix": op_mix,
                            "n_node_pairs": n_node_pairs,
                            "per_node_range": per_node_range,
                            "pairs_range": pairs_range,
                            "total_ops": total_ops,
                            "seed": seed,
                        },
                    )
                )
    return units


# -- Figure 9 -----------------------------------------------------------------


def fig9_units(
    modes: Sequence[str] = ("write", "read"),
    patterns: Sequence[int] = (1, 2),
    n_node_pairs: int = 4,
    ranks_per_node_max: int = 10,
    particles_per_rank: int = 256 * 1024,
    timesteps: int = 2,
    network_gbps: float = 25.0,
    dataset_load_us: float = 25_000.0,
    seed: int = 1,
) -> List[WorkUnit]:
    """One unit per Figure-9 cluster point and protocol."""
    units: List[WorkUnit] = []
    for mode in modes:
        bench = {
            "mode": mode,
            "particles_per_rank": particles_per_rank,
            "timesteps": timesteps,
            "dataset_load_us": dataset_load_us,
        }
        for pattern in patterns:
            if pattern == 2:
                grid = [(pairs, ranks_per_node_max) for pairs in range(1, n_node_pairs + 1)]
            else:
                step = max(1, ranks_per_node_max // 4)
                grid = [
                    (n_node_pairs, per_node)
                    for per_node in range(step, ranks_per_node_max + 1, step)
                ]
            for protocol in ("spdk", "nvme-opf"):
                for pairs, per_node in grid:
                    units.append(
                        WorkUnit(
                            unit_id=f"fig9/{mode}/p{pattern}/{protocol}/{pairs}x{per_node}",
                            kind=KIND_FIG9_POINT,
                            payload={
                                "bench": bench,
                                "protocol": protocol,
                                "pairs": pairs,
                                "per_node": per_node,
                                "network_gbps": network_gbps,
                                "seed": seed,
                                "meta": {
                                    "mode": mode,
                                    "pattern": pattern,
                                    "protocol": protocol,
                                    "total_ranks": pairs * per_node,
                                },
                            },
                        )
                    )
    return units


# -- fuzz campaigns -----------------------------------------------------------


def fuzz_units(
    n_programs: int,
    base_seed: int = 0,
    chunk_size: int = FUZZ_CHUNK_SIZE,
    determinism_stride: int = 25,
    generator_config=None,
) -> List[WorkUnit]:
    """Contiguous seed blocks covering ``[base_seed, base_seed+n_programs)``."""
    if not isinstance(n_programs, int) or isinstance(n_programs, bool) or n_programs < 1:
        raise ConfigError(f"key 'count' must be a positive integer (got {n_programs!r})")
    if not isinstance(base_seed, int) or isinstance(base_seed, bool) or base_seed < 0:
        raise ConfigError(
            f"key 'base_seed' must be a non-negative integer (got {base_seed!r})"
        )
    if not isinstance(chunk_size, int) or isinstance(chunk_size, bool) or chunk_size < 1:
        raise ConfigError(
            f"key 'chunk_size' must be a positive integer (got {chunk_size!r})"
        )
    units = []
    for start in range(base_seed, base_seed + n_programs, chunk_size):
        count = min(chunk_size, base_seed + n_programs - start)
        units.append(
            WorkUnit(
                unit_id=f"fuzz/{start:08d}+{count}",
                kind=KIND_FUZZ_BLOCK,
                payload={
                    "start": start,
                    "count": count,
                    "base_seed": base_seed,
                    "determinism_stride": determinism_stride,
                    "generator_config": generator_config,
                },
            )
        )
    return units


# -- registered scenario programs ---------------------------------------------


def program_units(
    names: Optional[Sequence[str]] = None,
    registry: Optional[ProgramRegistry] = None,
    check_invariants: bool = True,
) -> List[WorkUnit]:
    """One unit per registered program (default: the whole library)."""
    registry = registry if registry is not None else register_library_programs(DEFAULT_REGISTRY)
    names = list(names) if names is not None else registry.names()
    units = []
    for name in names:
        program = registry.get(name)  # raises, naming unknown programs
        units.append(
            WorkUnit(
                unit_id=f"program/{name}",
                kind=KIND_PROGRAM,
                payload={
                    "program": program.to_dict(),
                    "check_invariants": check_invariants,
                },
            )
        )
    return units


def run_programs_parallel(
    names: Optional[Sequence[str]] = None,
    registry: Optional[ProgramRegistry] = None,
    workers: int = 0,
    check_invariants: bool = True,
) -> List[ProgramRunEnvelope]:
    """Replay registered programs in parallel; envelopes in name order."""
    units = program_units(names=names, registry=registry, check_invariants=check_invariants)
    campaign = run_units(units, workers=workers)
    campaign.raise_on_failure()
    return [ProgramRunEnvelope(**r.data["envelope"]) for r in campaign.results]


# -- fault-matrix cells -------------------------------------------------------

#: The canonical single-fault matrix on the golden Figure-7 cell (the same
#: schedule shapes the chaos suite pins; component names match the
#: two_sided topology: client0/sw/target0 with tenants ls0, tc0, tc1).
FAULT_MATRIX = {
    "link_flap": lambda s: s.link_flap("sw->client0", 300.0, 150.0),
    "link_degrade": lambda s: s.link_degrade("client0->sw", 300.0, 300.0, scale=0.25),
    "link_loss_burst": lambda s: s.link_loss_burst("sw->client0", 300.0, 300.0, p=0.3),
    "nic_down": lambda s: s.nic_down("client0", 300.0, 150.0),
    "switch_pressure": lambda s: s.switch_pressure("sw", 300.0, 400.0, scale=0.25),
    "ssd_latency_spike": lambda s: s.ssd_latency_spike(
        "target0/ssd0", 300.0, 300.0, scale=8.0
    ),
    "ssd_transient_error": lambda s: s.ssd_transient_error("target0/ssd0", 300.0, 200.0),
    "target_crash": lambda s: s.target_crash("target0", 300.0, 400.0),
    "qpair_disconnect": lambda s: s.qpair_disconnect("tc0", 300.0),
}

#: The chaos suite's retry policy, reused so matrix cells recover cleanly.
FAULT_MATRIX_POLICY = dict(
    timeout_us=400.0,
    backoff_base_us=50.0,
    reconnect_delay_us=50.0,
    handshake_timeout_us=200.0,
)


def fault_matrix_units(
    kinds: Optional[Sequence[str]] = None,
    total_ops: int = 200,
    seed: int = 1,
    retry_policy: Optional[RetryPolicy] = None,
) -> List[WorkUnit]:
    """One chaos cell per fault kind on the golden Figure-7 scenario."""
    kinds = sorted(FAULT_MATRIX) if kinds is None else list(kinds)
    policy = retry_policy if retry_policy is not None else RetryPolicy(**FAULT_MATRIX_POLICY)
    units = []
    for kind in kinds:
        try:
            build = FAULT_MATRIX[kind]
        except KeyError:
            raise ConfigError(
                f"key 'kinds' names unknown fault kind {kind!r}; "
                f"known: {sorted(FAULT_MATRIX)}"
            ) from None
        units.append(
            WorkUnit(
                unit_id=f"faults/{kind}",
                kind=KIND_SCENARIO,
                payload={
                    "config": {
                        "protocol": "nvme-opf",
                        "network_gbps": 10.0,
                        "op_mix": "read",
                        "total_ops": total_ops,
                        "window_size": 16,
                        "seed": seed,
                    },
                    "ratio": "1:2",
                    "chaos": build(FaultSchedule()),
                    "retry_policy": policy,
                },
            )
        )
    return units


@dataclass
class FaultMatrixCell:
    """One merged fault-matrix verdict."""

    kind: str
    digest_sha256: str
    failed_ops: int
    goodput_ops: int


def run_fault_matrix_parallel(
    kinds: Optional[Sequence[str]] = None,
    total_ops: int = 200,
    seed: int = 1,
    workers: int = 0,
) -> List[FaultMatrixCell]:
    """Run the fault matrix as a campaign; cells in kind order."""
    import hashlib

    units = fault_matrix_units(kinds=kinds, total_ops=total_ops, seed=seed)
    campaign = run_units(units, workers=workers)
    campaign.raise_on_failure()
    cells = []
    for unit, result in zip(units, campaign.results):
        cells.append(
            FaultMatrixCell(
                kind=unit.unit_id.split("/", 1)[1],
                digest_sha256=hashlib.sha256(result.digest.encode()).hexdigest(),
                failed_ops=result.data["failed_ops"],
                goodput_ops=result.data["goodput_ops"],
            )
        )
    return cells
