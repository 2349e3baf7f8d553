"""Golden-figure regression: seed-era results must survive the fault layer.

The pinned numbers were captured from the repo *before* the fault-injection
subsystem landed (scaled-down Figure-7 shape: 1:2 tenant ratio, read mix,
10 Gbps, 200 ops/TC-tenant, window 16, seed 1).  Chaos support is required
to be zero-cost when disabled, so a scenario built without ``chaos=`` /
``retry_policy=`` must reproduce them — within 1% for the rate/latency
metrics, exactly for the event counts.
"""

import hashlib

import pytest

from repro.cluster.scaling import build_scaleout
from repro.cluster.scenario import ScenarioConfig
from repro.faults import RetryPolicy
from tests.conftest import build_fig7_cell

GOLDEN = {
    "spdk": {
        "tc_throughput_mbps": 1068.6327721007478,
        "ls_tail_us": 1161.6099999999867,
        "completion_notifications": 403,
    },
    "nvme-opf": {
        "tc_throughput_mbps": 1217.7481742262694,
        "ls_tail_us": 803.2880000000087,
        "completion_notifications": 30,
    },
}

#: sha256 of the full no-chaos nvme-opf metrics digest, captured BEFORE the
#: drain protocol was hardened for chaos.  The hardening is required to be
#: byte-invisible on the fault-free path: oPF digest lines appear only when
#: a counter is nonzero, so this pin must never move.
GOLDEN_OPF_DIGEST_SHA256 = (
    "9909aa02bf9d85b9cd79f8917b564d90a44b76d5f5281ccbdce5dfe238a8ad86"
)


#: sha256 of the full metrics digest of a TC-only scale-out run: 4 node
#: pairs x 3 tenants, read mix, 10 Gbps, 120 ops/tenant, window 16, seed 7.
#: The fig7 cell has one target; this pin covers the multi-node path: the
#: fabric-wide tenant-id and TCP connection-id allocation across four node
#: pairs and every per-target counter summed into the result.
GOLDEN_SCALEOUT_DIGEST_SHA256 = {
    "spdk": "a72a13daf65cd7a5fc270a957b9a9b1210055d017e0c82cfcdbc823a61cfa421",
    "nvme-opf": "b508f9b38aad768aa7bc0e3ee47ac68fb197856fb6c884bdb9b4676e78b4ca9a",
}


def run(protocol, retry_policy=None):
    return build_fig7_cell(protocol=protocol, retry_policy=retry_policy).run()


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_no_chaos_run_matches_seed_golden(protocol):
    result = run(protocol)
    golden = GOLDEN[protocol]
    assert result.tc_throughput_mbps == pytest.approx(
        golden["tc_throughput_mbps"], rel=0.01
    )
    assert result.ls_tail_us == pytest.approx(golden["ls_tail_us"], rel=0.01)
    assert result.completion_notifications == golden["completion_notifications"]
    # No chaos was configured: the fault/recovery books must be empty.
    assert result.fault_trace == ""
    assert result.fault_events == {}
    assert result.failed_ops == 0


def test_no_chaos_opf_digest_is_bit_identical_to_pre_hardening():
    """The chaos-safe drain protocol costs nothing when chaos is off."""
    digest = run("nvme-opf").metrics_digest()
    assert hashlib.sha256(digest.encode()).hexdigest() == GOLDEN_OPF_DIGEST_SHA256


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_idle_retry_policy_does_not_move_the_numbers(protocol):
    """Armed watchdogs with no faults: timing must be bit-identical.

    For nvme-opf this also arms the drain watchdog — a healthy run's
    coalesced responses always beat its deadline, so no forced drain ever
    fires and the digest cannot move.
    """
    plain = run(protocol)
    armed = run(protocol, retry_policy=RetryPolicy())
    assert armed.metrics_digest() == plain.metrics_digest()
    assert armed.recovery["timeouts"] == 0
    assert armed.recovery["retries"] == 0


@pytest.mark.parametrize("protocol", sorted(GOLDEN_SCALEOUT_DIGEST_SHA256))
def test_scaleout_digest_is_pinned(protocol):
    config = ScenarioConfig(
        protocol=protocol,
        network_gbps=10.0,
        op_mix="read",
        total_ops=120,
        window_size=16,
        seed=7,
    )
    digest = build_scaleout(config, 4, 3, include_ls=False).run().metrics_digest()
    assert (
        hashlib.sha256(digest.encode()).hexdigest()
        == GOLDEN_SCALEOUT_DIGEST_SHA256[protocol]
    )
