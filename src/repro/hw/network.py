"""Fabric: nodes wired through a switch, with per-network presets.

The paper's testbed ran the same Pentium-II hosts on three fabrics:
Myrinet (LANai 4.3) for Berkeley VIA, Packet Engines GNIC-II Gigabit
Ethernet for M-VIA, and Giganet cLAN5000 for cLAN VIA.  The presets
below encode the fabric-level differences (line rate, MTU, framing
overhead, switch discipline); provider-level differences live in
``repro.providers``.

Switch model: every packet traverses sender-uplink -> switch ->
receiver-downlink, and every downlink sits behind an :class:`OutputPort`
— the switch's per-destination FIFO queue.  The uplink serialises at
line rate (this is the single-flow bandwidth bottleneck).
Store-and-forward fabrics (Ethernet) serialise again on the downlink,
which adds one frame time to latency — visible in the paper's GigE
latency numbers — and tail-drop when the port's finite frame buffer
overflows.  Cut-through fabrics (Myrinet, Giganet) forward a lone frame
with only a small fixed switch latency plus a residual forwarding skew
(the downlink transmission pipelines with the uplink reception), but
the downlink wire still drains at line rate: when several senders
converge on one destination the port accumulates *backlog* and frames
queue behind it (the wormhole-backpressure analog), so multi-sender
traffic serialises at line rate instead of the old infinite-rate
downlink.  Uncontended traffic — in particular every two-node run — is
byte-identical to the pre-contention model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Generator

from ..sim import Event, Simulator
from .link import Channel, DuplexPort, Packet
from .node import Node

__all__ = ["NetworkParams", "HostParams", "OutputPort", "Switch", "Fabric",
           "MYRINET", "GIGE", "GIGANET"]

#: Rate multiple at which a cut-through port *completes* a frame once its
#: bits have arrived from the uplink: the residual crossbar forwarding
#: skew.  The downlink transmission overlaps the uplink reception, so a
#: lone frame is only charged this skew (~0.1% of a line frame time);
#: line-rate occupancy under contention is accounted separately by
#: :class:`OutputPort` backlog tracking.
_CUT_THROUGH_SKEW = 1000.0


@dataclass(frozen=True)
class NetworkParams:
    """Fabric-level characteristics (time in µs, rates in bytes/µs)."""

    name: str
    bandwidth: float            # line rate
    prop_delay: float           # one-way cable propagation per hop
    mtu: int                    # max payload bytes per wire packet
    header_bytes: int           # framing overhead per packet
    per_packet_cost: float      # fixed serialisation overhead per packet
    switch_latency: float       # fixed forwarding delay in the switch
    store_and_forward: bool     # Ethernet-style full-frame buffering
    loss_rate: float = 0.0      # injected drop probability (per packet)
    #: switch output-port buffer, in MTU-sized frames.  Store-and-forward
    #: ports tail-drop past this depth; cut-through ports count frames
    #: beyond it as backpressured (wormhole flow control never drops).
    port_buffer_frames: int = 64

    def with_loss(self, loss_rate: float) -> "NetworkParams":
        return replace(self, loss_rate=loss_rate)

    def with_mtu(self, mtu: int) -> "NetworkParams":
        if mtu < 64:
            raise ValueError("mtu must be >= 64 bytes")
        return replace(self, mtu=mtu)

    def with_port_buffer(self, frames: int) -> "NetworkParams":
        if frames < 1:
            raise ValueError("port buffer must hold at least one frame")
        return replace(self, port_buffer_frames=frames)


@dataclass(frozen=True)
class HostParams:
    """Host characteristics — identical across the paper's three testbeds."""

    mem_copy_bw: float = 90.0           # host memcpy throughput (MB/s);
                                        # Pentium-II era copies miss cache
    dma_bandwidth: float = 132.0        # 32-bit/33 MHz PCI effective rate
    dma_per_transfer_cost: float = 0.25 # PCI transaction setup
    tlb_entries: int = 64               # NIC translation-cache entries
    page_size: int = 4096


# -- presets calibrated to the paper's testbed ---------------------------
MYRINET = NetworkParams(
    name="myrinet",
    bandwidth=160.0,       # 1.28 Gb/s LANai 4.3 generation
    prop_delay=0.2,
    mtu=32768,
    header_bytes=8,
    per_packet_cost=0.2,
    switch_latency=0.5,
    store_and_forward=False,
)

GIGE = NetworkParams(
    name="gige",
    bandwidth=125.0,       # 1 Gb/s
    prop_delay=0.3,
    mtu=1500,
    header_bytes=26,       # Ethernet + IPC framing
    per_packet_cost=0.6,
    switch_latency=2.0,
    store_and_forward=True,
)

GIGANET = NetworkParams(
    name="giganet",
    bandwidth=112.0,       # 1.25 Gbaud cLAN, 8b/10b coded
    prop_delay=0.2,
    mtu=65536,
    header_bytes=8,
    per_packet_cost=0.15,
    switch_latency=0.4,
    store_and_forward=False,
)


class OutputPort:
    """One switch output port: a FIFO queue in front of a downlink.

    The port is where multi-sender contention becomes visible.  Two
    disciplines, chosen by ``params.store_and_forward``:

    * **Store-and-forward** (Ethernet): the downlink channel itself
      serialises the full frame, so queueing delay emerges from the
      channel's line resource.  The port adds the *finite buffer*: a
      frame arriving to find ``port_buffer_frames`` predecessors parked
      behind the line is tail-dropped, deterministically (counted in
      :attr:`drops`, traced as ``port_drop``).  Recovering dropped
      frames is the reliability layer's job — arm it via
      ``Testbed(loss_possible=True)`` on contended topologies.

    * **Cut-through** (Myrinet, Giganet): the downlink channel only
      charges the residual forwarding skew (``_CUT_THROUGH_SKEW`` times
      line rate), because a lone frame's downlink transmission pipelines
      with its uplink reception.  The wire still drains one frame per
      ``(size + header) / bandwidth``, so the port tracks *backlog* —
      outstanding wire time, drained in real time and topped up by each
      arrival.  A frame arriving to positive backlog waits it out before
      touching the channel: concurrent senders therefore serialise at
      line rate.  A single uplink can never build backlog (its own
      serialisation spaces arrivals at least one frame-time apart), so
      uncontended paths take zero extra simulation events and stay
      byte-identical to the pre-contention model.  Backlog beyond the
      buffer is counted as :attr:`backpressured` (wormhole flow control
      spills upstream rather than dropping).
    """

    def __init__(self, sim: Simulator, channel: Channel,
                 params: NetworkParams, name: str = "port") -> None:
        self.sim = sim
        self.channel = channel
        self.name = name
        self.cut_through = not params.store_and_forward
        self.capacity_frames = params.port_buffer_frames
        self._line_rate = params.bandwidth
        self._header_bytes = params.header_bytes
        #: the finite buffer expressed as wire time (cut-through only)
        self._buffer_us = (params.port_buffer_frames
                           * (params.mtu + params.header_bytes)
                           / params.bandwidth)
        self._backlog = 0.0       # outstanding wire time at _last_at
        self._last_at = 0.0       # timestamp of the last arrival
        self.forwarded = 0
        self.contended = 0        # frames that waited out backlog
        self.backpressured = 0    # frames past the buffer (cut-through)
        self.drops = 0            # frames tail-dropped (store-and-forward)
        self.max_backlog_us = 0.0

    def forward(self, packet: Packet) -> Generator[Event, Any, None]:
        """Process fragment: queue the packet through the port."""
        self.forwarded += 1
        # hot path: the simulator is read once; observer hooks (trace)
        # only dereference again on the rare contended/dropped branches
        sim = self.sim
        if self.cut_through:
            now = sim._now
            backlog = self._backlog - (now - self._last_at)
            if backlog < 0.0:
                backlog = 0.0
            self._last_at = now
            self._backlog = backlog + (
                (packet.size + self._header_bytes) / self._line_rate)
            if backlog > 0.0:
                self.contended += 1
                if backlog > self.max_backlog_us:
                    self.max_backlog_us = backlog
                if backlog > self._buffer_us:
                    self.backpressured += 1
                    sim.trace("wire", "port_backpressure", self.name,
                              pkt=packet.pkt_id)
                yield sim.timeout(backlog)
        elif self.channel.queue_depth >= self.capacity_frames:
            self.drops += 1
            sim.trace("wire", "port_drop", self.name,
                      pkt=packet.pkt_id)
            return
        yield from self.channel.send(packet)

    # -- burst (flow-level) path ------------------------------------------
    def plan_burst(self, arrive_times, sizes):
        """Arithmetic replay of :meth:`forward` for a batch of arrivals.

        Pure computation: walks the cut-through backlog recurrence (or
        the store-and-forward pass-through) over ``arrive_times`` without
        touching port state and returns ``(departs, commit)`` where
        ``departs[k]`` is when frame ``k`` reaches the downlink channel
        and ``commit()`` applies the counter and backlog-state deltas —
        call it only once the whole burst is accepted.  Returns ``None``
        when the arrivals interleave with frames the port has already
        accounted ahead of them (``_last_at`` past the first arrival):
        an out-of-order merge must fall back to packet granularity.
        """
        import numpy as np

        n = len(sizes)
        if not self.cut_through:
            # store-and-forward: the port itself adds no delay — queueing
            # emerges from the downlink line; finite-buffer tail-drop
            # cannot trigger on an uncontended burst (the caller bounds
            # in-flight frames below capacity_frames before planning)
            def commit() -> None:
                self.forwarded += n

            return np.asarray(arrive_times, dtype=np.float64), commit
        if self._last_at > arrive_times[0]:
            return None
        backlog = self._backlog
        last = self._last_at
        contended = 0
        backpressured = 0
        max_backlog = self.max_backlog_us
        departs = np.asarray(arrive_times, dtype=np.float64).copy()
        rate = self._line_rate
        hdr = self._header_bytes
        buffer_us = self._buffer_us
        for k, (t, size) in enumerate(zip(arrive_times, sizes)):
            b = backlog - (t - last)
            if b < 0.0:
                b = 0.0
            last = t
            backlog = b + (size + hdr) / rate
            if b > 0.0:
                contended += 1
                if b > max_backlog:
                    max_backlog = b
                if b > buffer_us:
                    backpressured += 1
                departs[k] = t + b

        def commit() -> None:
            self.forwarded += n
            self._backlog = backlog
            self._last_at = last
            self.contended += contended
            self.backpressured += backpressured
            self.max_backlog_us = max_backlog

        return departs, commit


def _by_src(packet: Packet) -> str:
    return packet.src


class _SourceArbiter:
    """Deterministic same-instant arrival ordering for a switch.

    Several channels can deliver packets to one switch at the exact same
    simulated instant (symmetric topologies with uniform or bursty
    arrivals make this the common case, not a corner).  Without
    arbitration the packets would be forwarded in heap-insertion order,
    an accident of how the kernel happened to number its events.  The
    arbiter makes the tie-break a function of packet *content*: arrivals
    at one instant are batched and dispatched in ``packet.src`` order
    once every ordinary (priority-0) event at that instant has run.
    The arbiter is part of every switch's pickled state, so the pinned
    snapshot blob hashes (``tests/fixtures/golden_snapshots.json``)
    depend on it.

    The sort is total: a single channel can never deliver two packets at
    the same instant (its serialisation spaces them apart), and every
    channel feeding a given switch carries a disjoint set of source
    nodes, so ``(instant, switch, src)`` uniquely identifies an arrival.

    Cost: one priority-1 flush event per (switch, instant) with at least
    one arrival.
    """

    __slots__ = ("sim", "dispatch", "_pending")

    def __init__(self, sim: Simulator, dispatch) -> None:
        self.sim = sim
        self.dispatch = dispatch
        self._pending: list[Packet] = []

    def submit(self, packet: Packet) -> None:
        pending = self._pending
        if not pending:
            # first arrival this instant: schedule the flush *after* all
            # priority-0 events at the same timestamp, so every arrival
            # at this instant joins this batch before it is ordered
            flush = Event(self.sim)
            flush.callbacks.append(self._flush)
            flush.succeed(priority=1)
        pending.append(packet)

    def _flush(self, _event: Event) -> None:
        pending = self._pending
        self._pending = []
        if len(pending) > 1:
            pending.sort(key=_by_src)
        dispatch = self.dispatch
        for packet in pending:
            dispatch(packet)


class Switch:
    """A single switch forwarding between node ports by destination name."""

    def __init__(self, sim: Simulator, params: NetworkParams) -> None:
        self.sim = sim
        self.params = params
        self._downlinks: dict[str, Channel] = {}
        self._ports: dict[str, OutputPort] = {}
        self._arbiter = _SourceArbiter(sim, self._dispatch)
        self.forwarded = 0

    def attach(self, node_name: str, downlink: Channel) -> None:
        self._downlinks[node_name] = downlink
        self._ports[node_name] = OutputPort(
            self.sim, downlink, self.params, name=f"{node_name}.downport")

    def port(self, node_name: str) -> OutputPort:
        return self._ports[node_name]

    def receive(self, packet: Packet) -> None:
        """Sink for uplink channels: forward after the switch latency."""
        if packet.dst not in self._ports:
            raise KeyError(f"switch has no port for destination {packet.dst!r}")
        self._arbiter.submit(packet)

    def _dispatch(self, packet: Packet) -> None:
        self.forwarded += 1
        port = self._ports[packet.dst]
        self.sim.process(self._forward(packet, port), name=f"fwd-{packet.pkt_id}")

    def _forward(self, packet: Packet, port: OutputPort):
        yield self.sim.timeout(self.params.switch_latency)
        yield from port.forward(packet)


class Fabric:
    """A complete testbed: N nodes on one switch."""

    def __init__(
        self,
        sim: Simulator,
        network: NetworkParams,
        node_names: tuple[str, ...] = ("node0", "node1"),
        host: HostParams = HostParams(),
        seed: int = 0,
    ) -> None:
        if len(set(node_names)) != len(node_names):
            raise ValueError("node names must be unique")
        self.sim = sim
        self.network = network
        self.host = host
        self.switch = Switch(sim, network)
        self.nodes: dict[str, Node] = {}
        down_bw = network.bandwidth
        down_hdr = network.header_bytes
        down_ppc = network.per_packet_cost
        if not network.store_and_forward:
            # Cut-through: the downlink channel charges only the residual
            # forwarding skew; line-rate occupancy under contention is
            # the OutputPort's job (see OutputPort docstring).
            down_bw *= _CUT_THROUGH_SKEW
            down_hdr = 0
            down_ppc = 0.0
        for i, name in enumerate(node_names):
            node = Node(
                sim,
                name,
                mem_copy_bw=host.mem_copy_bw,
                dma_bandwidth=host.dma_bandwidth,
                dma_per_transfer_cost=host.dma_per_transfer_cost,
                tlb_entries=host.tlb_entries,
                page_size=host.page_size,
            )
            uplink = Channel(
                sim, network.bandwidth, network.prop_delay, network.header_bytes,
                network.per_packet_cost, network.loss_rate,
                rng=__import__("random").Random(seed * 100 + i * 2),
                name=f"{name}.up",
            )
            downlink = Channel(
                sim, down_bw, network.prop_delay, down_hdr, down_ppc,
                0.0,  # loss is injected on the uplink only (once per path)
                name=f"{name}.down",
            )
            uplink.sink = self.switch.receive
            downlink.sink = node.nic.deliver
            node.nic.attach_port(DuplexPort(uplink, name=f"{name}.port"))
            self.switch.attach(name, downlink)
            self.nodes[name] = node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(self.nodes)
