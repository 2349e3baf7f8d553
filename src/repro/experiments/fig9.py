"""Figure 9: application-level scaling with h5bench over HDF5.

Each MPI rank hosts one fabric initiator (§V-E); ranks on one
initiator-node share that node's NIC and talk to the paired target-node.
Rank 0 of each node issues latency-sensitive metadata updates; bulk
particle I/O is throughput-critical.  Panels:

* (a) write / (b) read — pattern 2 (grow initiator-nodes, 10 ranks each);
* (c) write / (d) read — pattern 1 (grow ranks per node, 4 node pairs).

The paper's figure caption says 25 Gbps while Observation 5 says 100 Gbps;
we follow the caption (25 Gbps) and note the discrepancy in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cluster.scenario import Scenario, ScenarioConfig
from ..core.flags import Priority
from ..core.window import select_window
from ..errors import ConfigError
from ..hdf5sim.file import H5File
from ..hdf5sim.mpi import Communicator
from ..metrics.report import format_table, improvement_pct
from ..parallel.pool import run_units
from ..parallel.sweeps import fig9_units
from ..workloads.h5bench import (
    H5BenchConfig,
    H5BenchKernel,
    aggregate_bandwidth_mbps,
)
from ..workloads.mixes import TenantSpec

#: File-region blocks reserved per rank on its target namespace.
_RANK_REGION_BLOCKS = 1 << 16

#: Panel letter per (pattern, mode).
_PANELS = {(2, "write"): "a", (2, "read"): "b", (1, "write"): "c", (1, "read"): "d"}


@dataclass
class Fig9Point:
    panel: str
    mode: str
    pattern: int
    protocol: str
    total_ranks: int
    bandwidth_mbps: float
    mean_latency_us: float


def run_h5bench_cluster(
    protocol: str,
    bench: H5BenchConfig,
    n_node_pairs: int,
    ranks_per_node: int,
    network_gbps: float = 25.0,
    window_size: Optional[int] = None,
    seed: int = 1,
) -> tuple:
    """Run one h5bench cluster point; returns (aggregate MB/s, mean lat us).

    Each rank is one throughput-critical tenant whose workload is its
    :class:`H5BenchKernel`, so the scenario's quota barrier is "every rank
    done"; measurement starts when the handshakes complete.
    """
    if n_node_pairs < 1 or ranks_per_node < 1:
        raise ConfigError("need at least one node pair and one rank")
    window = window_size or select_window(
        bench.mode, network_gbps, tc_initiators=ranks_per_node
    )
    scenario = Scenario(
        ScenarioConfig(
            protocol=protocol,
            network_gbps=network_gbps,
            op_mix=bench.mode,
            window_size=window,
            warmup_us=0.0,
            seed=seed,
        )
    )
    comm = Communicator(scenario.env, n_node_pairs * ranks_per_node)

    def rank_kernel(rank: int, local: int):
        def build(initiator) -> H5BenchKernel:
            h5file = H5File(
                f"rank{rank}.h5",
                base_lba=local * _RANK_REGION_BLOCKS,
                capacity_blocks=_RANK_REGION_BLOCKS,
            )
            return H5BenchKernel(
                scenario.env, bench, initiator, h5file, comm,
                rank=rank,
                metadata_rank=(local == 0),  # one LS issuer per node
            )

        return build

    rank = 0
    for pair in range(n_node_pairs):
        tnode = scenario.add_target_node(f"target{pair}")
        inode = scenario.add_initiator_node(f"client{pair}")
        for local in range(ranks_per_node):
            spec = TenantSpec(f"rank{rank}", Priority.THROUGHPUT, bench.queue_depth, bench.mode)
            scenario.add_tenant(spec, inode, tnode, workload=rank_kernel(rank, local))
            rank += 1

    result = scenario.run()
    # scenario.generators holds every tenant's workload: here, the kernels.
    bandwidth = aggregate_bandwidth_mbps([k.result for k in scenario.generators])
    return bandwidth, result.mean_latency_us or 0.0


def run_fig9(
    modes: Sequence[str] = ("write", "read"),
    patterns: Sequence[int] = (1, 2),
    n_node_pairs: int = 4,
    ranks_per_node_max: int = 10,
    particles_per_rank: int = 256 * 1024,
    timesteps: int = 2,
    network_gbps: float = 25.0,
    dataset_load_us: float = 25_000.0,
    seed: int = 1,
    workers: int = 0,
    print_table: bool = False,
) -> List[Fig9Point]:
    """Run the Figure 9 panels (scaled particle counts).

    ``dataset_load_us`` models h5bench's dataset loading between read
    timesteps (§V-E "Discussion on h5bench overhead") — it is what keeps
    read bandwidth, and oPF's read-side gain, below the write numbers.
    The grid is :func:`~repro.parallel.sweeps.fig9_units`; ``workers``
    works as in :func:`~repro.experiments.fig7.run_fig7`.
    """
    units = fig9_units(
        modes=modes,
        patterns=patterns,
        n_node_pairs=n_node_pairs,
        ranks_per_node_max=ranks_per_node_max,
        particles_per_rank=particles_per_rank,
        timesteps=timesteps,
        network_gbps=network_gbps,
        dataset_load_us=dataset_load_us,
        seed=seed,
    )
    campaign = run_units(units, workers=workers)
    campaign.raise_on_failure()
    points = []
    for unit, result in zip(units, campaign.results):
        meta = unit.payload["meta"]
        points.append(
            Fig9Point(
                panel=_PANELS[(meta["pattern"], meta["mode"])],
                bandwidth_mbps=result.data["bandwidth_mbps"],
                mean_latency_us=result.data["mean_latency_us"],
                **meta,
            )
        )
    if print_table:
        print(format_fig9(points))
    return points


def format_fig9(points: List[Fig9Point]) -> str:
    rows = []
    paired = {}
    for p in points:
        paired.setdefault((p.panel, p.total_ranks), {})[p.protocol] = p
    for (panel, ranks), pair in sorted(paired.items()):
        if "spdk" not in pair or "nvme-opf" not in pair:
            continue
        s, o = pair["spdk"], pair["nvme-opf"]
        rows.append(
            [panel, s.mode, ranks, s.bandwidth_mbps, o.bandwidth_mbps,
             improvement_pct(o.bandwidth_mbps, s.bandwidth_mbps),
             s.mean_latency_us, o.mean_latency_us]
        )
    return format_table(
        ["panel", "mode", "ranks", "SPDK MB/s", "oPF MB/s", "+%",
         "SPDK lat", "oPF lat"],
        rows,
        title="Figure 9: h5bench scale-out",
    )
