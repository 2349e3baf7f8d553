"""Extensions beyond the paper's evaluated design.

The paper notes its flag scheme "can be easily extended to support more
I/O flags" and leaves deeper co-design as future work.  This module
implements one such extension end to end:

**Device-level priority** (:class:`DevicePriorityOpfTarget`) — NVMe-oPF's
latency-sensitive bypass skips the *target's* software queues, but an LS
command still waits behind every command already resident in the SSD's
submission queues.  NVMe's weighted-round-robin arbitration offers an
urgent priority class; this target allocates one urgent qpair per device
and routes latency-sensitive commands through it, so the device itself
serves them ahead of queued throughput-critical batches.  The
``bench_extensions`` benchmark quantifies the extra tail reduction.
"""

from __future__ import annotations

from typing import Any, Dict

from ..nvmeof.pdu import CapsuleCmdPdu
from ..nvmeof.target import RequestContext, TargetConnection
from ..ssd.latency import OP_FLUSH
from .flags import Priority
from .target import OpfTarget


class DevicePriorityOpfTarget(OpfTarget):
    """NVMe-oPF target with an urgent device qpair for LS commands."""

    runtime_name = "nvme-opf-devprio"

    def __init__(self, *args: Any, urgent_qpair_depth: int = 256, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._urgent_qpairs: Dict[int, Any] = {}
        for device in self.subsystem.devices:
            qp = device.create_qpair(depth=urgent_qpair_depth, urgent=True)
            qp.on_completion = self._on_device_completion
            self._urgent_qpairs[id(device)] = qp
        self.urgent_submissions = 0

    def _submit_to_device(
        self,
        conn: TargetConnection,
        pdu: CapsuleCmdPdu,
        tenant_id: int,
        draining: bool = False,
        group: Any = None,
    ) -> None:
        priority, _draining, _tenant = self.pm.classify(pdu.sqe)
        if priority is not Priority.LATENCY or group is not None:
            super()._submit_to_device(conn, pdu, tenant_id, draining=draining, group=group)
            return
        # Latency-sensitive: route through the device's urgent class.
        sqe = pdu.sqe
        op = sqe.op_name
        mapping = self.subsystem.resolve(sqe.nsid)
        qp = self._urgent_qpairs[id(mapping.device)]
        nbytes = sqe.nlb * mapping.device.profile.block_size if op != OP_FLUSH else 0
        ctx = RequestContext(
            conn=conn,
            cid=sqe.cid,
            op=op,
            nbytes=nbytes,
            tenant_id=tenant_id,
            draining=False,
            group=None,
        )
        self.urgent_submissions += 1
        if op == OP_FLUSH:
            qp.flush(nsid=mapping.device_nsid, context=ctx)
        else:
            qp.submit(
                op,
                nsid=mapping.device_nsid,
                slba=sqe.slba,
                nlb=sqe.nlb,
                context=ctx,
            )
