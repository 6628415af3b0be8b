"""Wire model: packets, unidirectional channels, full-duplex links.

A :class:`Channel` models one direction of a physical link: packets are
*serialised* (the channel is held for ``header + size`` at line rate),
then *propagate* (fixed delay, pipelined — the channel frees as soon as
the last bit leaves, so back-to-back packets stream at line rate, which
is what makes the bandwidth benchmarks saturate correctly).

Loss injection (for the unreliable-delivery reliability level) drops a
packet after serialisation, exactly where a SAN would lose it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

from ..sim import Event, Resource, Simulator
from ..sim.ids import id_space

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Packet", "Burst", "Channel", "Link", "DuplexPort"]

_packet_ids = id_space("packet")


@dataclass
class Packet:
    """One wire packet (a fragment of a VIA message or a control frame).

    ``size`` is the payload byte count on the wire; header overhead is a
    channel property.  ``payload`` carries protocol metadata and real
    data bytes; the wire does not interpret it.
    """

    src: str
    dst: str
    kind: str
    size: int
    payload: Any = None
    pkt_id: int = field(default_factory=lambda: next(_packet_ids))
    #: set by an injected wire_corrupt fault; the receiving NIC's CRC
    #: check drops the packet before any protocol processing
    corrupted: bool = False

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("packet size must be >= 0")


@dataclass
class Burst:
    """A multi-packet record carried through the wire model as one unit.

    The struct-of-arrays staging (numpy ``float64`` arrays, one slot per
    packet) holds the per-packet timestamps a burst-aware observer needs
    without materialising per-packet events: ``t_start``/``t_end`` bound
    each packet's serialisation window and ``t_deliver`` is its arrival
    at the channel sink.  Only :meth:`Channel.plan_burst` fills them, so
    numpy is imported there and nowhere on the packet path.
    """

    packets: list
    t_start: np.ndarray | None = None
    t_end: np.ndarray | None = None
    t_deliver: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.packets)


class Channel:
    """One direction of a link: serialise at line rate, then propagate."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        prop_delay: float,
        header_bytes: int = 0,
        per_packet_cost: float = 0.0,
        loss_rate: float = 0.0,
        rng: random.Random | None = None,
        name: str = "channel",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive (bytes/us)")
        if prop_delay < 0 or per_packet_cost < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.bandwidth = bandwidth
        self.prop_delay = prop_delay
        self.header_bytes = header_bytes
        self.per_packet_cost = per_packet_cost
        self.loss_rate = loss_rate
        self.rng = rng or random.Random(0)
        self.name = name
        self.sink: Callable[[Packet], None] | None = None
        self._line = Resource(sim, capacity=1)
        #: virtual line occupancy left behind by an arithmetic burst:
        #: packet-level senders arriving before this instant wait it out
        #: (FIFO, by wait-start order), exactly as if the line resource
        #: had been held for real.  Stays 0.0 in pure packet mode.
        self._ff_busy_until = 0.0
        self.sent_packets = 0
        self.dropped_packets = 0
        self.delivered_packets = 0
        self.dup_packets = 0
        self.sent_bytes = 0

    @property
    def queue_depth(self) -> int:
        """Packets parked behind the line (the sender-side FIFO depth)."""
        return self._line.queued

    def serialization_time(self, packet: Packet) -> float:
        return self.per_packet_cost + (packet.size + self.header_bytes) / self.bandwidth

    def send(self, packet: Packet) -> Generator[Event, Any, None]:
        """Process fragment: occupy the line while the packet serialises.

        Returns once the last bit is on the wire; delivery to the sink
        happens ``prop_delay`` later without holding the line.
        """
        if self.sink is None:
            raise RuntimeError(f"{self.name}: no sink attached")
        # hot path: one locals load for the simulator, observers read
        # once — the armed-but-dormant path costs zero extra attribute
        # lookups per packet beyond the single _ff_busy_until compare
        sim = self.sim
        busy = self._ff_busy_until
        if busy > 0.0:
            wait = busy - sim._now
            if wait > 0.0:
                yield sim.timeout(wait)
        yield self._line.request()
        try:
            yield sim.timeout(self.serialization_time(packet))
        finally:
            self._line.release()
        self.sent_packets += 1
        self.sent_bytes += packet.size
        tracer = sim.tracer
        if tracer is not None:
            sim.trace("wire", "serialized", self.name, pkt=packet.pkt_id,
                      kind=packet.kind, size=packet.size)
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.dropped_packets += 1
            sim.trace("wire", "dropped", self.name, pkt=packet.pkt_id)
            return
        delay = self.prop_delay
        faults = sim.faults
        if faults is not None:
            fate, extra = faults.wire_fate(self, packet)
            if fate == "drop":
                self.dropped_packets += 1
                sim.trace("wire", "fault_dropped", self.name,
                          pkt=packet.pkt_id)
                return
            delay += extra
            if fate == "corrupt":
                packet.corrupted = True
                sim.trace("wire", "fault_corrupted", self.name,
                          pkt=packet.pkt_id)
            elif fate == "dup":
                # the duplicate trails the original by one frame time
                self.dup_packets += 1
                sim.trace("wire", "fault_duplicated", self.name,
                          pkt=packet.pkt_id)
                self._schedule_delivery(
                    packet, delay + self.serialization_time(packet))
        self._schedule_delivery(packet, delay)

    def _schedule_delivery(self, packet: Packet, delay: float) -> None:
        """Schedule one delivery to the sink ``delay`` from now."""
        deliver = self.sim.timeout(delay, packet)
        deliver.callbacks.append(self._deliver)

    def _deliver(self, event: Event) -> None:
        assert self.sink is not None
        self.delivered_packets += 1
        sim = self.sim
        if sim.tracer is not None:
            sim.trace("wire", "delivered", self.name,
                      pkt=event.value.pkt_id)
        self.sink(event.value)

    # -- burst (flow-level) path ------------------------------------------
    def plan_burst(self, emit_times, sizes,
                   line_free: float = 0.0) -> tuple:
        """Arithmetic serialisation schedule for a back-to-back burst.

        Pure computation (no state touched): given the instants each
        packet becomes available (``emit_times``) and its payload size,
        returns ``(starts, ends, delivers)`` numpy arrays — when each
        packet's serialisation begins and ends and when it reaches the
        sink — reproducing exactly what per-packet :meth:`send` calls
        would compute on an initially-free line (or one busy until
        ``line_free``).  The per-packet serialisation times are
        vectorised (bitwise-identical to :meth:`serialization_time`);
        the FIFO-drain recurrence ``start_k = max(emit_k, end_{k-1})``
        runs as an exact scalar loop so every timestamp reproduces the
        event path's float operations bit for bit.
        """
        import numpy as np

        sizes = np.asarray(sizes, dtype=np.float64)
        ser = self.per_packet_cost + (sizes + self.header_bytes) / self.bandwidth
        n = len(sizes)
        starts = np.empty(n, dtype=np.float64)
        ends = np.empty(n, dtype=np.float64)
        prev_end = line_free
        for k, (e, s) in enumerate(zip(emit_times, ser.tolist())):
            st = e if e > prev_end else prev_end
            prev_end = st + s
            starts[k] = st
            ends[k] = prev_end
        return starts, ends, ends + self.prop_delay

    def note_burst(self, n: int, nbytes: int, busy_until: float,
                   delivered: bool = True) -> None:
        """Commit an arithmetic burst: bulk counters + virtual occupancy."""
        self.sent_packets += n
        self.sent_bytes += nbytes
        if delivered:
            self.delivered_packets += n
        if busy_until > self._ff_busy_until:
            self._ff_busy_until = busy_until

    def send_burst(self, burst: "Burst | list[Packet]") -> Generator[Event, Any, None]:
        """Process fragment: serialise a whole burst in O(1) line events.

        The line is held once for the burst; per-packet serialisation
        windows and delivery instants are computed arithmetically
        (:meth:`plan_burst`) and delivery callbacks are scheduled up
        front, so the event count is one line hold plus one delivery per
        packet instead of a request/timeout/release chain each.  Falls
        back to packet-at-a-time :meth:`send` whenever an observer needs
        per-packet treatment: a tracer, an armed fault injector, or a
        lossy wire.
        """
        packets = burst.packets if isinstance(burst, Burst) else burst
        if not packets:
            return
        sim = self.sim
        if (self.loss_rate or sim.faults is not None
                or sim.tracer is not None):
            for packet in packets:
                yield from self.send(packet)
            return
        if self.sink is None:
            raise RuntimeError(f"{self.name}: no sink attached")
        busy = self._ff_busy_until
        if busy > 0.0:
            wait = busy - sim._now
            if wait > 0.0:
                yield sim.timeout(wait)
        yield self._line.request()
        try:
            now = sim._now
            sizes = [p.size for p in packets]
            starts, ends, delivers = self.plan_burst(
                [now] * len(packets), sizes)
            if isinstance(burst, Burst):
                burst.t_start, burst.t_end, burst.t_deliver = (
                    starts, ends, delivers)
            for packet, at in zip(packets, delivers.tolist()):
                self._schedule_delivery(packet, at - now)
            yield sim.timeout(float(ends[-1]) - now)
        finally:
            self._line.release()
        self.sent_packets += len(packets)
        self.sent_bytes += sum(sizes)


class Link:
    """A full-duplex link: an independent channel per direction."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        prop_delay: float,
        header_bytes: int = 0,
        per_packet_cost: float = 0.0,
        loss_rate: float = 0.0,
        seed: int = 0,
        name: str = "link",
    ) -> None:
        self.name = name
        self.forward = Channel(
            sim, bandwidth, prop_delay, header_bytes, per_packet_cost,
            loss_rate, random.Random(seed * 2 + 1), f"{name}.fwd",
        )
        self.backward = Channel(
            sim, bandwidth, prop_delay, header_bytes, per_packet_cost,
            loss_rate, random.Random(seed * 2 + 2), f"{name}.bwd",
        )


class DuplexPort:
    """A NIC's attachment point: one outgoing and one incoming channel."""

    def __init__(self, out_channel: Channel, name: str = "port") -> None:
        self.out_channel = out_channel
        self.name = name

    def send(self, packet: Packet) -> Generator[Event, Any, None]:
        yield from self.out_channel.send(packet)
