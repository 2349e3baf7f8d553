#!/usr/bin/env python3
"""HDF5 checkpointing over NVMe-oPF — the paper's application-level story.

A simulated 8-rank MPI job periodically checkpoints a particle dataset to
one HDF5 file on disaggregated storage.  Bulk checkpoint data is tagged
throughput-critical; the rank-0 metadata updates (superblock, object
headers) are latency-sensitive and bypass the batch traffic.

Each rank is one scenario tenant whose workload is an h5bench kernel
(``Scenario.add_tenant(..., workload=...)``), so the scenario runs until
every rank has written its last checkpoint.  The script runs the same job
against the baseline runtime and NVMe-oPF and reports checkpoint bandwidth.

Run:  python examples/hdf5_checkpoint.py
"""

from repro import Scenario, ScenarioConfig
from repro.core.flags import Priority
from repro.hdf5sim import Communicator, H5File
from repro.metrics import format_table
from repro.workloads import TenantSpec
from repro.workloads.h5bench import H5BenchConfig, H5BenchKernel, aggregate_bandwidth_mbps

N_RANKS = 8
CHECKPOINT = H5BenchConfig(
    mode="write",
    particles_per_rank=32 * 1024,  # 256 KiB per checkpoint per rank
    timesteps=3,  # checkpoints
    compute_us=500.0,  # simulated compute between checkpoints
    queue_depth=32,
)
NETWORK_GBPS = 100.0


def run(protocol: str):
    scenario = Scenario(ScenarioConfig(
        protocol=protocol, network_gbps=NETWORK_GBPS, op_mix="write",
        window_size=16, warmup_us=0.0, seed=21,
    ))
    storage = scenario.add_target_node("storage")
    host = scenario.add_initiator_node("compute")
    comm = Communicator(scenario.env, N_RANKS)

    def rank_kernel(rank):
        def build(initiator):
            h5file = H5File(f"ckpt-rank{rank}.h5", base_lba=rank * (1 << 14),
                            capacity_blocks=1 << 14)
            return H5BenchKernel(scenario.env, CHECKPOINT, initiator, h5file,
                                 comm, rank=rank)
        return build

    for rank in range(N_RANKS):
        spec = TenantSpec(f"rank{rank}", Priority.THROUGHPUT, 64, "write")
        scenario.add_tenant(spec, host, storage, workload=rank_kernel(rank))
    result = scenario.run()

    ranks = [scenario.generators_by_name[f"rank{r}"].result for r in range(N_RANKS)]
    return {
        "bandwidth_mbps": aggregate_bandwidth_mbps(ranks),
        "makespan_ms": max(r.elapsed_us for r in ranks) / 1000.0,
        "notifications": result.completion_notifications,
    }


def main() -> None:
    spdk = run("spdk")
    opf = run("nvme-opf")
    rows = [
        ["checkpoint bandwidth (MB/s)", spdk["bandwidth_mbps"], opf["bandwidth_mbps"]],
        ["job makespan (ms)", spdk["makespan_ms"], opf["makespan_ms"]],
        ["completion notifications", spdk["notifications"], opf["notifications"]],
    ]
    print(format_table(
        ["metric", "SPDK (baseline)", "NVMe-oPF"], rows,
        title=f"{N_RANKS}-rank HDF5 checkpointing, {CHECKPOINT.timesteps} checkpoints",
    ))
    speedup = spdk["makespan_ms"] / opf["makespan_ms"]
    print(f"\nNVMe-oPF finishes the checkpoint phase {speedup:.2f}x faster while the "
          f"rank-0 metadata ops ride the latency-sensitive bypass.")


if __name__ == "__main__":
    main()
