"""h5bench-style HDF5 I/O kernels (paper §V-E).

The paper's configuration: each MPI rank writes (or reads) an 8M-particle
1-D array as one HDF5 dataset in 4 KiB accesses, over several timesteps.
Reads additionally pay a *dataset-loading overhead* between timesteps —
the h5bench behaviour the paper calls out as the reason read bandwidth
trails write bandwidth at the application level.

Each rank drives one fabric initiator through the VOL connector; rank 0
updates file metadata (latency-sensitive) once per timestep, matching the
"one LS initiator per node" setup of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Optional

from ..errors import WorkloadError
from ..hdf5sim.file import H5File
from ..hdf5sim.mpi import Communicator
from ..hdf5sim.vol import VolConnector
from ..units import BLOCK_4K

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nvmeof.initiator import NvmeOfInitiator
    from ..simcore.engine import Environment
    from ..simcore.process import Process

H5_WRITE = "write"
H5_READ = "read"


@dataclass
class H5BenchConfig:
    """Kernel parameters (paper defaults scaled for simulation)."""

    mode: str = H5_WRITE
    particles_per_rank: int = 64 * 1024  # paper: 8M total; scaled per rank
    element_size: int = 8  # one 1-D double per particle
    timesteps: int = 2
    queue_depth: int = 128
    io_size: int = BLOCK_4K
    compute_us: float = 50.0  # simulated compute between timesteps
    dataset_load_us: float = 400.0  # h5bench read-path loading overhead
    metadata_per_timestep: bool = True

    def __post_init__(self) -> None:
        if self.mode not in (H5_WRITE, H5_READ):
            raise WorkloadError(f"mode must be 'write' or 'read', got {self.mode!r}")
        if self.particles_per_rank < 1 or self.timesteps < 1:
            raise WorkloadError("particles and timesteps must be positive")
        if self.io_size % BLOCK_4K:
            raise WorkloadError("io_size must be a multiple of 4 KiB")

    @property
    def bytes_per_timestep(self) -> int:
        return self.particles_per_rank * self.element_size


class H5BenchRankResult:
    """Per-rank outcome."""

    __slots__ = ("rank", "bytes_moved", "elapsed_us", "metadata_ops")

    def __init__(self, rank: int, bytes_moved: int, elapsed_us: float, metadata_ops: int) -> None:
        self.rank = rank
        self.bytes_moved = bytes_moved
        self.elapsed_us = elapsed_us
        self.metadata_ops = metadata_ops

    @property
    def bandwidth_mbps(self) -> float:
        return self.bytes_moved / self.elapsed_us if self.elapsed_us > 0 else 0.0


class H5BenchKernel:
    """One rank's kernel, bound to an initiator + file.

    A scenario workload: :meth:`start` spawns the rank process, which is
    also :attr:`done`.
    """

    def __init__(
        self,
        env: "Environment",
        config: H5BenchConfig,
        initiator: "NvmeOfInitiator",
        h5file: H5File,
        comm: Communicator,
        rank: int,
        nsid: int = 1,
        metadata_rank: Optional[bool] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.comm = comm
        self.rank = rank
        #: Which rank issues the latency-sensitive metadata updates; by
        #: default global rank 0, but scale-out runs mark one per node.
        self.metadata_rank = (rank == 0) if metadata_rank is None else metadata_rank
        self.vol = VolConnector(
            env,
            initiator,
            h5file,
            nsid=nsid,
            io_blocks=config.io_size // BLOCK_4K,
        )
        self.dataset = h5file.datasets.get("particles") or h5file.create_dataset(
            "particles", config.particles_per_rank, config.element_size
        )
        self.result: Optional[H5BenchRankResult] = None
        self.done: Optional["Process"] = None

    def start(self) -> "Process":
        """Spawn the rank process (:meth:`body`); it doubles as :attr:`done`."""
        self.done = self.env.process(self.body(), name=f"h5rank{self.rank}")
        return self.done

    def body(self) -> Generator:
        """The rank process: timesteps of I/O separated by barriers."""
        cfg = self.config
        env = self.env
        start = env.now
        bytes_moved = 0
        metadata_ops = 0
        for _ts in range(cfg.timesteps):
            if cfg.mode == H5_READ and cfg.dataset_load_us > 0:
                # h5bench's dataset loading between read timesteps.
                yield env.timeout(cfg.dataset_load_us)
            if cfg.compute_us > 0:
                yield env.timeout(cfg.compute_us)
            if cfg.metadata_per_timestep and self.metadata_rank:
                # Object-header update: a latency-sensitive metadata op.
                meta = self.vol.update_metadata()
                metadata_ops += 1
                yield meta.completion_event(env)
            if cfg.mode == H5_WRITE:
                yield from self.vol.write_elements(
                    self.dataset, 0, cfg.particles_per_rank, queue_depth=cfg.queue_depth
                )
            else:
                yield from self.vol.read_elements(
                    self.dataset, 0, cfg.particles_per_rank, queue_depth=cfg.queue_depth
                )
            bytes_moved += cfg.bytes_per_timestep
            yield self.comm.barrier()
        self.result = H5BenchRankResult(
            self.rank, bytes_moved, env.now - start, metadata_ops
        )
        return self.result


def aggregate_bandwidth_mbps(results: List[H5BenchRankResult]) -> float:
    """h5bench-style aggregate: total bytes over the slowest rank's time."""
    if not results:
        raise WorkloadError("no rank results")
    total_bytes = sum(r.bytes_moved for r in results)
    makespan = max(r.elapsed_us for r in results)
    return total_bytes / makespan if makespan > 0 else 0.0
