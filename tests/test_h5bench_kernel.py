"""Direct tests of the h5bench kernel (Figure 9's workload engine)."""

import pytest

from repro import Scenario, ScenarioConfig
from repro.cluster.node import InitiatorNode, TargetNode
from repro.core.flags import Priority
from repro.errors import ConfigError, SimulationError
from repro.hdf5sim import Communicator, H5File
from repro.net import Fabric
from repro.simcore import Environment, RandomStreams
from repro.workloads import TenantSpec
from repro.workloads.h5bench import H5BenchConfig, H5BenchKernel, aggregate_bandwidth_mbps

SMALL = dict(particles_per_rank=4096, timesteps=2, compute_us=10.0, queue_depth=32)


def make_cluster(n_ranks=2, protocol="nvme-opf", config=None):
    env = Environment()
    fabric = Fabric(env, rate_gbps=100)
    tnode = TargetNode(env, "t0", fabric, RandomStreams(19), protocol=protocol)
    inode = InitiatorNode(env, "c0", fabric)
    comm = Communicator(env, n_ranks)
    cfg = config or H5BenchConfig(mode="write", dataset_load_us=50.0, **SMALL)
    kernels = []
    connects = []
    for rank in range(n_ranks):
        initiator = inode.add_initiator(
            f"rank{rank}", tnode, protocol=protocol, queue_depth=cfg.queue_depth,
            window_size=8,
        )
        connects.append(initiator.connect())
        h5file = H5File(f"r{rank}.h5", base_lba=rank * 4096, capacity_blocks=4096)
        kernels.append(
            H5BenchKernel(env, cfg, initiator, h5file, comm, rank=rank,
                          metadata_rank=(rank == 0))
        )
    env.run(until=env.all_of(connects))
    ranks = [k.start() for k in kernels]
    env.run(until=env.all_of(ranks))
    env.run()
    return env, kernels, tnode


def test_write_kernel_moves_expected_bytes():
    env, kernels, _ = make_cluster()
    for kernel in kernels:
        result = kernel.result
        assert result is not None
        # 4096 particles x 8 B x 2 timesteps.
        assert result.bytes_moved == 4096 * 8 * 2
        assert result.elapsed_us > 0


def test_only_metadata_rank_issues_metadata():
    env, kernels, _ = make_cluster(n_ranks=3)
    assert kernels[0].result.metadata_ops == 2  # one per timestep
    assert kernels[1].result.metadata_ops == 0
    assert kernels[2].result.metadata_ops == 0
    assert kernels[0].vol.metadata_requests == 2


def test_read_kernel_pays_dataset_loading():
    cfg_loaded = H5BenchConfig(
        mode="read", particles_per_rank=4096, timesteps=2,
        compute_us=0.0, dataset_load_us=2_000.0, queue_depth=32,
    )
    cfg_free = H5BenchConfig(
        mode="read", particles_per_rank=4096, timesteps=2,
        compute_us=0.0, dataset_load_us=0.0, queue_depth=32,
    )
    _, loaded, _ = make_cluster(config=cfg_loaded)
    _, free, _ = make_cluster(config=cfg_free)
    slow = max(k.result.elapsed_us for k in loaded)
    fast = max(k.result.elapsed_us for k in free)
    assert slow >= fast + 2 * 2_000.0 * 0.9  # both timesteps paid the load


def test_barriers_synchronize_timesteps():
    env, kernels, _ = make_cluster(n_ranks=2)
    # Both ranks finish the whole job at the same barrier.
    ends = [k.result.elapsed_us for k in kernels]
    assert ends[0] == pytest.approx(ends[1], rel=0.01)


def test_aggregate_bandwidth_from_kernels():
    env, kernels, _ = make_cluster()
    bw = aggregate_bandwidth_mbps([k.result for k in kernels])
    assert bw > 0


def test_kernel_coalesces_on_opf_target():
    env, kernels, tnode = make_cluster()
    assert tnode.target.stats.coalesced_notifications > 0
    # Metadata writes were latency-sensitive bypasses.
    assert tnode.target.pm.ls_bypassed >= 2


def test_start_spawns_the_rank_process_as_done():
    env, kernels, _ = make_cluster(n_ranks=1)
    kernel = kernels[0]
    assert kernel.done is not None and kernel.done.triggered
    assert kernel.done.value is kernel.result


# -- kernels as scenario workloads ---------------------------------------------------
def _rank_scenario(comm_size, start_delay_us=0.0):
    """One h5bench rank tenant on a Scenario, over a communicator of
    ``comm_size`` ranks."""
    scenario = Scenario(ScenarioConfig(protocol="nvme-opf", op_mix="write", warmup_us=0.0))
    comm = Communicator(scenario.env, comm_size)
    cfg = H5BenchConfig(mode="write", **SMALL)

    def build(initiator):
        h5file = H5File("r0.h5", base_lba=0, capacity_blocks=4096)
        return H5BenchKernel(scenario.env, cfg, initiator, h5file, comm, rank=0)

    spec = TenantSpec("rank0", Priority.THROUGHPUT, cfg.queue_depth, "write",
                      start_delay_us=start_delay_us)
    scenario.add_tenant(spec, scenario.add_initiator_node(), scenario.add_target_node(),
                        workload=build)
    return scenario


def test_kernel_workload_runs_to_the_quota_barrier():
    scenario = _rank_scenario(comm_size=1)
    result = scenario.run()
    kernel = scenario.generators_by_name["rank0"]
    assert kernel.result.bytes_moved == 4096 * 8 * 2
    assert result.goodput_ops > 0 and result.failed_ops == 0


def test_rank_stuck_at_a_barrier_fails_the_quota_barrier():
    # The communicator waits for a second rank that never exists, so the
    # rank's done event never fires and the queue drains first.
    scenario = _rank_scenario(comm_size=2)
    with pytest.raises(SimulationError, match="quota barrier"):
        scenario.run()


def test_factory_tenant_cannot_start_late():
    with pytest.raises(ConfigError, match="start_delay_us"):
        _rank_scenario(comm_size=1, start_delay_us=100.0)
