"""The benchmark's three workloads and the checks on their outputs.

Every workload is closed loop: each tenant keeps its queue depth of I/Os
outstanding and issues the next one only when one completes.  Cells (one
scenario or one hosted session each) run one after another in this process
and this thread.

* ``fig7-tcp-read`` -- the Figure 7 cell at 10 Gbps over TCP, read mix,
  LS:TC 1:4, window 16; SPDK first, then NVMe-oPF.  The paper's headline
  comparison and the workload where ``net`` does its largest share.
* ``scaleout-rdma-write`` -- the Figure 8 pattern-1 shape: 5 target /
  initiator pairs x 5 tenants (1 LS + 4 TC each) at 100 Gbps over RDMA with
  a write mix, SPDK only.  TCP and ``core`` are bypassed, so a TCP or oPF
  optimisation should leave it unchanged; 25 tenants over 5 SSDs saturate
  the target CPU.
* ``session-qos-guard`` -- the library ``qos_guard_program`` (NVMe-oPF,
  slo-guard, 1 LS + a staged TC burst) hosted in a ``SimSession`` and driven
  by ``advance(max_events=...)`` slices with a telemetry peek after each
  slice, an ``SloChange`` injected mid-run, a pause + checkpoint at the
  midpoint and a restore from that checkpoint.  The only workload that runs
  ``qos``, ``scenarios`` and ``service``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from statistics import fmean
from typing import Callable, Dict, List, Optional, Tuple

from repro import Scenario, ScenarioConfig, tenants_for_ratio
from repro.cluster.scaling import build_scaleout
from repro.errors import ReproError
from repro.scenarios.actions import SloChange
from repro.scenarios.compiler import compile_program
from repro.scenarios.invariants import check_all
from repro.scenarios.library import qos_guard_program
from repro.scenarios.program import ScenarioProgram
from repro.service.session import SimSession

FIG7 = "fig7-tcp-read"
SCALEOUT = "scaleout-rdma-write"
SESSION = "session-qos-guard"
WORKLOADS = (FIG7, SCALEOUT, SESSION)

#: Ops per throughput-critical tenant at full size and at the smoke size.
#: Full sizes keep each cell near a host second on a 2-CPU x86 host, long
#: enough to rise above timer noise and short enough for ~10 repetitions
#: per run.
OPS = {FIG7: 2000, SCALEOUT: 1000, SESSION: 4000}
TINY_OPS = {FIG7: 60, SCALEOUT: 40, SESSION: 300}

#: Heap entries per ``SimSession.advance`` slice.  At full size the session
#: takes ~1400 slices, so its p99 slice time has more than ten samples
#: beyond it.
SLICE_EVENTS = 64
#: Workload-relative virtual time at which the SLO change is injected, and
#: how far in the future it takes effect.
INJECT_AT_US = 1_000.0
INJECT_LEAD_US = 100.0
#: The injected change: tighten ls0's p99 ceiling from the program's 650 us.
INJECTED_CEILING_US = 500.0


@dataclass
class CellRun:
    """One cell's outputs and host timings from one repetition."""

    cell: str
    protocol: str
    ios: int
    failed: int
    host_s: float  # host seconds spent dispatching simulation events
    #: I/Os the repetition simulated for this cell, counting the restored
    #: session's replay; per-layer costs are divided by it.
    sim_ios: int
    digest_sha256: str  # sha256 of ScenarioResult.metrics_digest()
    tc_mbps: float
    ls_p9999_us: float
    counters: Dict[str, float]
    #: Messages of every check this cell failed (empty = correct).
    errors: List[str] = field(default_factory=list)
    #: Session-only host timings, in seconds.
    timings: Dict[str, List[float]] = field(default_factory=dict)
    #: Checks that run after the repetition, outside any traced region.
    pending: List[Callable[[], None]] = field(default_factory=list)

    def finish_checks(self) -> None:
        """Run the deferred checks, recording each failure in :attr:`errors`."""
        while self.pending:
            check = self.pending.pop(0)
            try:
                check()
            except ReproError as exc:
                self.errors.append(f"invariant: {exc}")


@dataclass
class Plan:
    """What a repetition must do beyond running its cells.

    The first (warm-up) repetition of a session run has no checkpoint
    cursor; it records the uninterrupted run's step count and digest, and
    every later repetition pauses, checkpoints and restores at half that
    step count and must reproduce the same digest.
    """

    checkpoint_at: Optional[int] = None
    session_steps: Optional[int] = None
    session_digest: Optional[str] = None


# -- cell construction ----------------------------------------------------------


def _fig7_cells(seed: int, ops: int) -> List[Tuple[str, object]]:
    cells = []
    for protocol in ("spdk", "nvme-opf"):
        cfg = ScenarioConfig(
            protocol=protocol,
            network_gbps=10.0,
            transport="tcp",
            op_mix="read",
            total_ops=ops,
            window_size=16,
            seed=seed,
        )
        cells.append((protocol, Scenario.two_sided(cfg, tenants_for_ratio("1:4"))))
    return cells


def _scaleout_cells(seed: int, ops: int) -> List[Tuple[str, object]]:
    cfg = ScenarioConfig(
        protocol="spdk",
        network_gbps=100.0,
        transport="rdma",
        op_mix="write",
        total_ops=ops,
        seed=seed,
    )
    return [("spdk", build_scaleout(cfg, n_node_pairs=5, initiators_per_node=5))]


def session_program(seed: int, ops: int) -> ScenarioProgram:
    """The library SLO-guard program with the workload's seed and size."""
    base = qos_guard_program(total_ops=ops)
    return ScenarioProgram(
        name=base.name,
        config={**base.config, "seed": seed},
        actions=base.actions,
        n_target_nodes=base.n_target_nodes,
        n_ssds=base.n_ssds,
        description=base.description,
    )


def _session_cells(seed: int, ops: int) -> List[Tuple[str, object]]:
    return [("session", SimSession(session_program(seed, ops), session_id="bench"))]


_BUILDERS: Dict[str, Callable[[int, int], List[Tuple[str, object]]]] = {
    FIG7: _fig7_cells,
    SCALEOUT: _scaleout_cells,
    SESSION: _session_cells,
}


def build_cells(workload: str, seed: int, ops: int) -> List[Tuple[str, object]]:
    """Construct every cell of ``workload`` up to its first event."""
    return _BUILDERS[workload](seed, ops)


# -- model counters -------------------------------------------------------------


def model_counters(scenario: Scenario, result) -> Dict[str, float]:
    """Per-cell model counters read off the public stats objects."""
    fabric = scenario.fabric
    transports = [
        ini.transport
        for inode in scenario.initiator_nodes.values()
        for ini in inode.initiators
    ]
    transports += [
        conn.transport for tnode in scenario.target_nodes for conn in tnode.target.connections
    ]
    ssds = [ssd for tnode in scenario.target_nodes for ssd in tnode.ssds]
    return {
        "heap": scenario.env._seq,  # heap entries scheduled (checkpoints' engine_seq)
        "packets": sum(fabric.uplink(node).stats.delivered for node in fabric.nodes),
        "drops": result.fabric_drops,
        "tcp_retransmits": result.tcp_retransmits,
        "pdus": sum(t.pdus_sent for t in transports),
        "notifications": result.completion_notifications,
        "coalesced": result.coalesced_notifications,
        "tenant_switches": result.tenant_switches,
        "cpu_util": result.target_cpu_utilization,
        "ssd_util": fmean(ssd.controller.utilization() for ssd in ssds),
        "qos_ticks": result.qos.get("ticks", 0),
        "qos_actions": result.qos.get("actions", 0),
        "qos_throttle_delays": result.qos.get("throttle_delays", 0),
    }


def _cell_run(cell: str, scenario: Scenario, result, host_s: float) -> CellRun:
    ios = result.goodput_ops + result.failed_ops
    return CellRun(
        cell=cell,
        protocol=scenario.config.protocol,
        ios=ios,
        failed=result.failed_ops,
        host_s=host_s,
        sim_ios=ios,
        digest_sha256=hashlib.sha256(result.metrics_digest().encode()).hexdigest(),
        tc_mbps=result.tc_throughput_mbps,
        ls_p9999_us=result.ls_tail_us,
        counters=model_counters(scenario, result),
    )


# -- running --------------------------------------------------------------------


def _run_blocking(cell: str, scenario: Scenario) -> CellRun:
    t0 = time.perf_counter()
    result = scenario.run()
    host_s = time.perf_counter() - t0
    run = _cell_run(cell, scenario, result, host_s)
    run.pending.append(lambda: check_all(scenario, result, context=cell))
    return run


def _run_session(session: SimSession, plan: Plan) -> CellRun:
    perf = time.perf_counter
    program = session.program
    t0 = perf()
    compile_program(program)  # timed on its own; the session compiled its own copy
    compile_s = perf() - t0

    slices: List[float] = []
    peeks: List[float] = []
    cursor = 0
    injected = False
    checkpoint = None
    checkpoint_s: List[float] = []
    while not session.finished:
        t0 = perf()
        session.advance(max_events=SLICE_EVENTS)
        t1 = perf()
        cursor, _snapshots = session.telemetry(cursor)
        t2 = perf()
        slices.append(t1 - t0)
        peeks.append(t2 - t1)
        if session.finished:
            break
        start = session.workload_start
        if not injected and start is not None and session.env.now - start >= INJECT_AT_US:
            session.inject(
                SloChange(tenant="ls0", p99_ceiling_us=INJECTED_CEILING_US),
                at_us=session.env.now - start + INJECT_LEAD_US,
            )
            injected = True
        if (
            checkpoint is None
            and plan.checkpoint_at is not None
            and session.steps >= plan.checkpoint_at
        ):
            session.pause()
            t0 = perf()
            checkpoint = session.make_checkpoint("midpoint")
            checkpoint_s.append(perf() - t0)
            session.resume()

    errors: List[str] = []
    if session.error is not None:
        errors.append(f"session failed: {session.error}")
    if not injected:
        errors.append("the session ended before the SLO change was injected")
    timings = {
        "slice_s": slices,
        "telemetry_s": peeks,
        "compile_s": [compile_s],
        "checkpoint_s": checkpoint_s,
    }
    replayed_ios = 0
    if plan.checkpoint_at is not None:
        if checkpoint is None:
            errors.append("the session ended before its checkpoint cursor")
        elif not checkpoint["injections"]:
            errors.append("the checkpoint was taken before the SLO change was injected")
        else:
            t0 = perf()
            try:
                restored = SimSession.from_checkpoint(checkpoint, session_id="restored")
            except ReproError as exc:
                restored = None
                errors.append(f"restore failed: {exc}")
            timings["restore_s"] = [perf() - t0]
            if restored is not None:
                restored.resume()
                restored.run_to_completion()
                replayed_ios = restored.status()["completed"]
                if restored.digest != session.digest:
                    errors.append("the restored session's digest differs from the original's")
    if plan.session_digest is not None and session.digest != plan.session_digest:
        errors.append("the checkpointed session's digest differs from the uninterrupted run's")

    scenario = session.scenario
    if session.digest is None:  # failed: no result to read; every issued I/O fails
        issued = session.status()["issued"]
        return CellRun(
            cell="session", protocol=scenario.config.protocol, ios=issued, failed=issued,
            host_s=sum(slices), sim_ios=issued + replayed_ios, digest_sha256="",
            tc_mbps=0.0, ls_p9999_us=0.0, counters={}, errors=errors, timings=timings,
        )
    # A sealed session exposes its ScenarioResult only through its ProgramRun.
    run = _cell_run("session", scenario, session._result_run.result, sum(slices))
    run.errors.extend(errors)
    run.timings = timings
    run.sim_ios += replayed_ios
    plan.session_steps = session.steps
    if plan.session_digest is None:
        plan.session_digest = session.digest
    return run


def run_rep(workload: str, seed: int, ops: int, plan: Plan) -> List[CellRun]:
    """Build and run every cell of ``workload`` once, in order."""
    runs = []
    for cell, obj in build_cells(workload, seed, ops):
        if isinstance(obj, SimSession):
            runs.append(_run_session(obj, plan))
        else:
            runs.append(_run_blocking(cell, obj))
    if plan.checkpoint_at is None and plan.session_steps is not None:
        plan.checkpoint_at = plan.session_steps // 2
    return runs
