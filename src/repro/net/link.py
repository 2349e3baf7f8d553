"""Point-to-point links with finite bandwidth and droptail queues.

A :class:`Link` is unidirectional: packets are enqueued, serialised at the
line rate, and delivered to a sink callable after the propagation delay.
The queue is limited in *packets* (as NIC rings and shallow switch buffers
are), which is what makes small completion-notification packets expensive
under congestion: they occupy queue slots out of proportion to their bytes.
This is the mechanism behind the paper's 10 Gbps multi-tenant read results.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Callable, Deque, Optional

from ..errors import ConfigError
from ..units import gbps_to_bytes_per_us
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment


class LinkStats:
    """Counters for one link."""

    __slots__ = (
        "enqueued",
        "dropped",
        "fault_drops",
        "delivered",
        "bytes_sent",
        "data_packets",
        "ack_packets",
        "busy_time",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped = 0
        self.fault_drops = 0
        self.delivered = 0
        self.bytes_sent = 0
        self.data_packets = 0
        self.ack_packets = 0
        self.busy_time = 0.0


class Link:
    """Unidirectional serialising link with a droptail packet queue."""

    __slots__ = (
        "env",
        "name",
        "rate",
        "_base_rate",
        "rate_gbps",
        "propagation",
        "queue_limit",
        "sink",
        "stats",
        "_free_at",
        "_pending",
        "_deliver_cb",
        "drop_filter",
        "up",
    )

    def __init__(
        self,
        env: "Environment",
        rate_gbps: float,
        propagation_us: float = 2.0,
        queue_packets: int = 128,
        name: str = "link",
    ) -> None:
        if rate_gbps <= 0:
            raise ConfigError("link rate must be positive")
        if propagation_us < 0:
            raise ConfigError("propagation delay must be non-negative")
        if queue_packets < 1:
            raise ConfigError("queue must hold at least one packet")
        self.env = env
        self.name = name
        self.rate = gbps_to_bytes_per_us(rate_gbps)  # bytes per microsecond
        self._base_rate = self.rate
        self.rate_gbps = rate_gbps
        self.propagation = propagation_us
        self.queue_limit = queue_packets
        self.sink: Optional[Callable[[Packet], None]] = None
        self.stats = LinkStats()
        #: Virtual serialisation clock: when the transmitter finishes the
        #: last frame accepted so far (<= now means idle).  A non-preemptive
        #: FIFO wire is fully determined at accept time, so each frame's
        #: delivery is scheduled directly (one heap event per frame) instead
        #: of simulating the serialise/propagate legs separately.
        self._free_at = 0.0
        #: Frames accepted but not yet serialising, as mutable
        #: ``[start_time, packet]`` pairs in FIFO order.  Pruned lazily;
        #: its (pruned) length is the droptail queue occupancy, and it is
        #: what a rate renegotiation rewrites.
        self._pending: Deque[list] = deque()
        #: The delivery callback as a single pre-bound method: ``send`` puts
        #: one on the heap per frame, and binding it fresh each time would
        #: allocate a method object per frame.
        self._deliver_cb = self._deliver
        #: Optional fault-injection hook: packets for which this returns
        #: True are dropped before enqueue (counted in ``stats.dropped``).
        self.drop_filter: Optional[Callable[[Packet], bool]] = None
        #: Link administrative state; a downed link (flap fault) drops every
        #: frame offered to it, exactly like a dead cable.
        self.up = True

    def connect(self, sink: Callable[[Packet], None]) -> None:
        """Set the delivery callback (the far end's receive handler)."""
        self.sink = sink

    @property
    def queue_depth(self) -> int:
        """Packets currently waiting (excludes the one in transmission)."""
        pending = self._pending
        now = self.env.now
        while pending and pending[0][0] <= now:
            pending.popleft()
        return len(pending)

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet``; returns False (and drops) if the queue is full.

        Matches real NIC/switch behaviour: the sender is not back-pressured,
        it simply loses the frame and TCP recovers.
        """
        if self.sink is None:
            raise ConfigError(f"link {self.name!r} has no sink connected")
        if not self.up:
            self.stats.dropped += 1
            self.stats.fault_drops += 1
            return False
        if self.drop_filter is not None and self.drop_filter(packet):
            self.stats.dropped += 1
            self.stats.fault_drops += 1
            return False
        env = self.env
        now = env.now
        pending = self._pending
        if pending:
            # An empty queue always has room (``queue_limit >= 1``).
            while pending and pending[0][0] <= now:
                pending.popleft()
            if len(pending) >= self.queue_limit:
                self.stats.dropped += 1
                return False
        stats = self.stats
        stats.enqueued += 1
        start = self._free_at
        if start < now:
            start = now
        tx_time = packet.wire_size / self.rate
        end = start + tx_time
        self._free_at = end
        stats.busy_time += tx_time
        deliver_at = end + self.propagation
        packet.deliver_at = deliver_at
        packet._carrier = self
        if start > now:
            pending.append([start, packet])
        # Inlined env.call_at (the simulator's single hottest schedule site):
        # deliver_at is always finite and >= now by construction, so the
        # validation and call overhead are skipped.  Same (t, NORMAL, seq)
        # heap key call_at would produce.
        seq = env._seq
        env._seq = seq + 1
        _heappush(env._queue, (deliver_at, 1, seq, self._deliver_cb, packet))
        return True

    # -- internals ---------------------------------------------------------------
    # One heap event per frame: a non-preemptive FIFO wire's schedule is
    # known at accept time, so ``send`` books the whole serialise+propagate
    # trajectory up front.  ``_deliver`` re-checks ``packet.deliver_at``
    # against the clock (the restartable-timer idiom) so a rate
    # renegotiation can rewrite the schedule without cancelling heap
    # entries.
    def _deliver(self, packet: Packet) -> None:
        if packet._carrier is not self:
            return  # superseded: an earlier reschedule already delivered it
        deliver_at = packet.deliver_at
        if deliver_at > self.env.now:
            # The schedule was pushed out (rate degraded) after this event
            # was booked: sleep the difference and re-check.
            self.env.call_at(deliver_at, self._deliver_cb, packet)
            return
        packet._carrier = None
        stats = self.stats
        stats.bytes_sent += packet.wire_size
        if packet.kind == "data":
            stats.data_packets += 1
        else:
            stats.ack_packets += 1
        stats.delivered += 1
        self.sink(packet)  # type: ignore[misc]

    # -- fault hooks -------------------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Administratively raise/drop the link (flap fault adapter)."""
        self.up = up

    def set_rate_scale(self, scale: float) -> None:
        """Degrade (or restore) the line rate to ``scale`` x nominal.

        Frames already serialising keep their original transmit time; the
        new rate applies from the next dequeue, as with real PHY
        renegotiation.  Because delivery is booked at accept time, the
        waiting frames' schedules are rewritten here: each gets its new
        transmit time back-to-back behind the wire's committed work, and a
        frame whose delivery moved *earlier* gets a fresh heap event (its
        stale event is skipped via the ``_carrier`` check), while one whose
        delivery moved *later* is caught by ``_deliver``'s deadline
        re-check.
        """
        if scale <= 0:
            raise ConfigError("rate scale must be positive")
        new_rate = self._base_rate * scale
        if new_rate == self.rate:
            return
        self.rate = new_rate
        env = self.env
        now = env.now
        pending = self._pending
        while pending and pending[0][0] <= now:
            pending.popleft()
        if not pending:
            return
        # The wire is continuously busy up to the first waiter's start (it
        # was booked back-to-back behind the in-flight frame), so rebooking
        # walks forward from exactly that instant.
        prev_end = pending[0][0]
        stats = self.stats
        prop = self.propagation
        for entry in pending:
            packet = entry[1]
            old_deliver = packet.deliver_at
            old_tx = (old_deliver - prop) - entry[0]
            entry[0] = prev_end
            tx_time = packet.wire_size / new_rate
            stats.busy_time += tx_time - old_tx
            end = prev_end + tx_time
            deliver_at = end + prop
            packet.deliver_at = deliver_at
            if deliver_at < old_deliver:
                env.call_at(deliver_at, self._deliver_cb, packet)
            prev_end = end
        self._free_at = prev_end

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the transmitter was busy."""
        t = elapsed if elapsed is not None else self.env.now
        if t <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / t)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name!r} {self.rate_gbps}Gbps q={self.queue_depth}/{self.queue_limit}>"
