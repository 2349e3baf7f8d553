#!/usr/bin/env python3
"""Simulation-as-a-service: drive a hosted run over HTTP.

Starts the control plane in-process on an ephemeral port, then acts as a
remote client:

  1. submit the fig7 cell program (with an SLO on ls0) as JSON, parked,
  2. advance it to three virtual instants and read the telemetry snapshot
     each one leaves — per-tenant goodput, streaming p99, and SLO verdicts
     straight from the QoS plane,
  3. inject an ``slo_change`` at a future virtual time (tightening ls0's
     ceiling mid-run, exactly like an operator amending a tenant contract),
  4. pause the session, serialize a checkpoint, restore it as a *new*
     session, and run both to completion,
  5. verify the two sealed digests are bit-identical — interruption,
     checkpointing, and resumption left no trace on the timeline.

Run:  python examples/service_session.py
"""

from repro.scenarios.actions import SloChange
from repro.scenarios.library import fig7_cell_program
from repro.service import ServiceClient, ServiceServer


def main() -> None:
    program = fig7_cell_program().to_dict()
    # Arm the QoS plane so slo_change is legal and telemetry carries verdicts.
    program["config"]["slos"] = [{"tenant": "ls0", "p99_ceiling_us": 5_000.0}]
    program["name"] = "fig7-opf-1to2-slo"

    with ServiceServer(workers=2, slice_events=256) as server:
        client = ServiceClient(server.host, server.port)
        print(f"service up at {server.address}: {client.health()}")

        # Submitted parked: only advance calls move its virtual clock, so the
        # walk below is the same on any host, however fast.
        session_id = client.submit(program, start=False)
        print(f"submitted {program['name']!r} as session {session_id}")

        # Step to three virtual instants, reading the snapshot each leaves.
        cursor = 0
        for until_us in (500.0, 1_000.0, 1_500.0):
            client.advance(session_id, until_us=until_us)
            cursor, snapshots = client.telemetry(session_id, cursor=cursor)
            for snap in snapshots:
                qos = snap["qos"] or {}
                verdicts = {t: v["slo_violated"] for t, v in qos.items() if v["slo"]}
                print(
                    f"  t={snap['at_us']:9.1f}us phase={snap['phase']:<8} "
                    f"steps={snap['steps']:<6} slo_verdicts={verdicts}"
                )

        # Tighten ls0's ceiling at a future virtual instant.
        client.inject(
            session_id,
            SloChange(tenant="ls0", p99_ceiling_us=900.0),
            at_us=3_333.3,
        )
        print("injected slo_change(ls0, p99<=900us) at t=+3333.3us")

        # Pause -> checkpoint -> restore as a second session.
        client.pause(session_id)
        checkpoint = client.checkpoint(session_id, label="demo")
        print(
            f"checkpointed at step {checkpoint['steps']} "
            f"(t={checkpoint['virtual_us']:.1f}us)"
        )
        clone_id = client.restore(checkpoint, start=True)
        client.resume(session_id)

        original = client.wait(session_id, timeout_s=120.0)
        clone = client.wait(clone_id, timeout_s=120.0)
        print(f"original session: digest sha256 {original['digest_sha256']}")
        print(f"restored session: digest sha256 {clone['digest_sha256']}")
        assert original["digest"] == clone["digest"], "resume diverged!"
        print("checkpoint/resume proof: sealed digests are bit-identical")


if __name__ == "__main__":
    main()
