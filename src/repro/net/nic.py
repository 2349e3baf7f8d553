"""Host NIC: the node's attachment point to the fabric.

The NIC owns the node's egress link (toward the switch) and demultiplexes
ingress packets to the TCP connections terminating at this node.  Per-node
packet counters live here; they feed Figure 6(c)'s completion-notification
accounting at the network level.

A connection registers one handler for its frames and, optionally, one for
its pure ACKs, which :meth:`Nic.receive` calls with the cumulative ACK
number alone (TCP's sender needs nothing else from an ACK frame).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..errors import NetworkError
from .link import Link
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment


class Nic:
    """One host network interface."""

    __slots__ = (
        "env",
        "node",
        "egress",
        "_handlers",
        "_ack_handlers",
        "rx_packets",
        "rx_dropped",
        "tx_packets",
        "tx_dropped",
        "fault_down",
    )

    def __init__(self, env: "Environment", node: str, egress: Link) -> None:
        self.env = env
        self.node = node
        self.egress = egress
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        self._ack_handlers: Dict[int, Callable[[int], None]] = {}
        self.rx_packets = 0
        self.rx_dropped = 0
        self.tx_packets = 0
        self.tx_dropped = 0
        #: Fault-injection state: a downed NIC loses every frame in both
        #: directions (models a dead port / firmware wedge).
        self.fault_down = False

    def register_connection(
        self,
        conn_id: int,
        handler: Callable[[Packet], None],
        on_ack: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Route ingress packets for ``conn_id`` to ``handler``; with
        ``on_ack``, pure ACKs go to ``on_ack(ack_number)`` instead."""
        if conn_id in self._handlers:
            raise NetworkError(f"connection {conn_id} already registered on {self.node!r}")
        self._handlers[conn_id] = handler
        if on_ack is not None:
            self._ack_handlers[conn_id] = on_ack

    def unregister_connection(self, conn_id: int) -> None:
        self._handlers.pop(conn_id, None)
        self._ack_handlers.pop(conn_id, None)

    def transmit(self, packet: Packet) -> bool:
        """Send one frame toward the switch; False if dropped at the egress queue."""
        self.tx_packets += 1
        if self.fault_down:
            self.tx_dropped += 1
            return False
        ok = self.egress.send(packet)
        if not ok:
            self.tx_dropped += 1
        return ok

    def receive(self, packet: Packet) -> None:
        """Ingress entry point (connected as the sink of the access link)."""
        if self.fault_down:
            self.rx_dropped += 1
            return
        self.rx_packets += 1
        if packet.kind != "data":
            on_ack = self._ack_handlers.get(packet.conn_id)
            if on_ack is not None:
                on_ack(packet.ack)
                return
        handler = self._handlers.get(packet.conn_id)
        if handler is None:
            # Packets for torn-down connections are silently dropped, as a
            # real host would RST them; simulation-level protocols never
            # tear down mid-run so this mostly guards tests.
            return
        handler(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Nic {self.node!r} conns={len(self._handlers)}>"
