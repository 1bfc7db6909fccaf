"""Packetization and overlapping-chunk distribution.

The sample stream is quantized to 8-bit I/Q and cut into numbered packets;
packets map to multicast groups; each server subscribes to 17 consecutive
groups (mod the total) and assembles every S-th chunk.  Consecutive chunks
overlap by exactly one group.  The default transport is in-process bounded
queues; a UDP-multicast backend with the same interface is optional.

Wire format: 8-byte little-endian packet number, then the payload
(interleaved signed 8-bit I/Q, 2 bytes per sample).  The wire format reaches
the worker: an assembled chunk is its packets' payloads joined, as ``SC8``
samples plus the full scale, and the worker dequantizes it.

A lost packet costs its own samples, not its chunk: the chunk is handed out
with the packet's span zero-filled and listed in ``ChunkRecord.erased``, and
the worker decodes around it.
"""

from __future__ import annotations

import socket
import struct
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import LengthMismatch
from .iqfile import SC8, count_clipped, quantize_int8
from .numerology import Numerology, first_sample_of_packet, group_of_packet

PACKET_HEADER = struct.Struct("<Q")
DEFAULT_FULL_SCALE = 4.0  # packetizer full scale of e2e, demod and bench
MAX_DROPPED_LISTED = 64  # dropped chunks whose first sample one assembler lists


@dataclass(frozen=True)
class Packet:
    packet_number: int
    payload: bytes  # interleaved signed 8-bit I/Q

    def to_wire(self) -> bytes:
        return PACKET_HEADER.pack(self.packet_number) + self.payload

    @classmethod
    def from_wire(cls, data: bytes) -> "Packet":
        if len(data) < PACKET_HEADER.size:
            raise LengthMismatch("short packet")
        (number,) = PACKET_HEADER.unpack_from(data)
        return cls(packet_number=number, payload=data[PACKET_HEADER.size :])


@dataclass
class ChunkRecord:
    """One worker's unit of work: contiguous samples plus their origin.

    ``samples`` holds one entry per sample, so its length is the sample count
    and slices are in samples.  Assembled chunks carry the wire's 8-bit I/Q
    as ``iqfile.SC8`` samples, a quarter of the complex64 size, and
    ``full_scale`` is their quantizer scale; the worker dequantizes them.
    Complex64 samples are taken as they are, and ``full_scale`` is unused.
    ``erased`` lists the ``(start, end)`` sample offsets, relative to the
    first sample, of lost packets; those samples are zero.
    """

    first_sample_number: int
    samples: np.ndarray  # SC8 or complex64
    full_scale: float = 1.0
    erased: tuple[tuple[int, int], ...] = ()


@dataclass
class PacketizeResult:
    packets: list[Packet]
    residual_samples: int
    clipped: int


def packetize(
    iq: np.ndarray,
    plan: Numerology,
    first_packet_number: int = 0,
    full_scale: float = 1.0,
) -> PacketizeResult:
    """Quantize and cut a buffer into numbered packets.

    Full-scale floats map to +-127; a trailing partial packet is dropped and
    reported in ``residual_samples``.
    """
    iq = np.asarray(iq, dtype=np.complex64)
    p = plan.packet.samples_per_packet
    n_packets = iq.size // p
    residual = iq.size - n_packets * p
    clipped = count_clipped(iq, full_scale)
    raw = quantize_int8(iq[: n_packets * p], full_scale)
    packets = [
        Packet(
            packet_number=first_packet_number + i,
            payload=raw[2 * p * i : 2 * p * (i + 1)].tobytes(),
        )
        for i in range(n_packets)
    ]
    return PacketizeResult(packets=packets, residual_samples=residual, clipped=clipped)


@dataclass
class AssemblyStats:
    chunks_emitted: int = 0
    chunks_dropped: int = 0  # never handed out: not one of their packets arrived
    chunks_partial: int = 0  # handed out with erased spans
    packets_missing: int = 0  # packets erased in the partial chunks
    packets_malformed: int = 0  # dropped for a payload of the wrong length
    residual_samples: int = 0  # the capture's trailing partial packet, not packetized
    clipped: int = 0  # capture samples beyond the packetizer's full scale
    dropped_first_samples: list = field(default_factory=list)  # first MAX_DROPPED_LISTED per server

    def add(self, other: "AssemblyStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class ChunkAssembler:
    """Collects one server's subscribed packets into chunks.

    Server ``s`` owns global chunks ``c`` with ``c % S == s``; chunk ``c``
    spans ``packets_per_chunk`` consecutive packets starting at
    ``c * advance_packets``.  Packets are taken to arrive in order, so a
    chunk's window closes when its last packet arrives, or, when that packet
    is lost, at the server's next packet, which on more than one server
    belongs to its next chunk.  A closed window with missing packets is
    handed out with their spans zero-filled and listed in ``erased``
    (counted in ``chunks_partial`` and ``packets_missing``); one with no
    packet at all is dropped (``chunks_dropped``), and the windows a packet
    has passed are dropped in one step, however far ahead it is.  A packet
    whose payload is not ``packet_payload_bytes`` long is dropped on arrival
    and counted in ``packets_malformed``; its span is erased as a lost
    packet's is.
    """

    def __init__(self, plan: Numerology, server_id: int, full_scale: float = 1.0):
        if server_id >= plan.distribution.num_servers:
            raise ValueError(f"server {server_id} out of range")
        self.plan = plan
        self.server_id = server_id
        self.full_scale = full_scale
        self.stats = AssemblyStats()
        self._pending: deque[_Window] = deque()
        self._next_chunk = server_id  # global chunk index

    def _window_for(self, chunk_index: int) -> "_Window":
        plan = self.plan
        return _Window(
            first_packet=chunk_index * plan.chunk.advance_packets,
            n_packets=plan.chunk.packets_per_chunk,
            payload_bytes=plan.packet.packet_payload_bytes,
        )

    def push(self, packet: Packet) -> list[ChunkRecord]:
        """Feed one packet (in delivery order); returns any chunks it closes."""
        plan = self.plan
        if len(packet.payload) != plan.packet.packet_payload_bytes:
            self.stats.packets_malformed += 1
            return []
        number, step = packet.packet_number, plan.distribution.num_servers
        # drop the windows that end before this packet: the first one it can
        # still fill is chunk ceil((number - packets_per_chunk + 1) / advance)
        reach = -((plan.chunk.packets_per_chunk - 1 - number) // plan.chunk.advance_packets)
        if reach > self._next_chunk:
            self._drop(-((self._next_chunk - reach) // step))
        # open the windows this packet falls in
        while self._next_chunk * plan.chunk.advance_packets <= number:
            self._pending.append(self._window_for(self._next_chunk))
            self._next_chunk += step
        for win in self._pending:
            win.add(packet)
        # close windows this packet completes, ends or has moved past
        out: list[ChunkRecord] = []
        while self._pending and (
            self._pending[0].complete or number >= self._pending[0].end_packet - 1
        ):
            out.append(self._finish(self._pending.popleft()))
        return out

    def _drop(self, count: int) -> None:
        """Skip this server's next `count` windows, none of which got a packet."""
        stats, step = self.stats, self.plan.distribution.num_servers
        listed = min(count, MAX_DROPPED_LISTED - len(stats.dropped_first_samples))
        stats.dropped_first_samples.extend(
            (self._next_chunk + i * step) * self.plan.chunk.advance_samples for i in range(listed)
        )
        stats.chunks_dropped += count
        self._next_chunk += count * step

    def flush(self) -> list[ChunkRecord]:
        """End of stream: emit complete windows; unfinished ones are abandoned
        (not counted as drops, there was no stream left to fill them)."""
        out = [self._finish(win) for win in self._pending if win.complete]
        self._pending.clear()
        return out

    def _finish(self, win: "_Window") -> ChunkRecord:
        """Hand out a window that got at least one packet."""
        self.stats.chunks_emitted += 1
        missing = win.n_packets - win.have
        if missing:
            self.stats.chunks_partial += 1
            self.stats.packets_missing += missing
        return ChunkRecord(
            first_sample_number=first_sample_of_packet(win.first_packet, self.plan),
            samples=np.frombuffer(win.buffer(), dtype=SC8),
            full_scale=self.full_scale,
            erased=win.missing_spans(self.plan.packet.samples_per_packet),
        )


class _Window:
    __slots__ = ("first_packet", "n_packets", "payload_bytes", "_parts", "have")

    def __init__(self, first_packet: int, n_packets: int, payload_bytes: int):
        self.first_packet = first_packet
        self.n_packets = n_packets
        self.payload_bytes = payload_bytes
        self._parts: list[bytes | None] = [None] * n_packets
        self.have = 0

    @property
    def end_packet(self) -> int:
        return self.first_packet + self.n_packets

    @property
    def complete(self) -> bool:
        return self.have == self.n_packets

    def add(self, packet: Packet) -> None:
        i = packet.packet_number - self.first_packet
        if 0 <= i < self.n_packets and self._parts[i] is None:
            self._parts[i] = packet.payload
            self.have += 1

    def buffer(self) -> bytes:
        """The joined payloads, a missing packet's bytes zero."""
        zero = bytes(self.payload_bytes)
        return b"".join(zero if p is None else p for p in self._parts)

    def missing_spans(self, samples_per_packet: int) -> tuple[tuple[int, int], ...]:
        """Runs of missing packets as (start, end) sample offsets."""
        spans: list[tuple[int, int]] = []
        for i, part in enumerate(self._parts):
            if part is not None:
                continue
            start = i * samples_per_packet
            if spans and spans[-1][1] == start:
                spans[-1] = (spans[-1][0], start + samples_per_packet)
            else:
                spans.append((start, start + samples_per_packet))
        return tuple(spans)


def subscribe_and_assemble(
    packets,
    plan: Numerology,
    server_id: int,
    full_scale: float = 1.0,
) -> tuple[list[ChunkRecord], AssemblyStats]:
    """Run one server's subscription filter + assembler over a packet stream."""
    subs = set(plan.distribution.subscriptions(server_id))
    asm = ChunkAssembler(plan, server_id, full_scale)
    chunks: list[ChunkRecord] = []
    for pkt in packets:
        if group_of_packet(pkt.packet_number, plan) in subs:
            chunks.extend(asm.push(pkt))
    chunks.extend(asm.flush())
    return chunks, asm.stats


def assemble_chunks(
    per_server_packets, plan: Numerology, full_scale: float = 1.0
) -> tuple[list[ChunkRecord], AssemblyStats]:
    """Assemble every server's chunks from its packet stream (one iterable
    per server); returns them sorted by first sample, and the servers'
    assembly counters summed."""
    chunks: list[ChunkRecord] = []
    total = AssemblyStats()
    for server, packets in enumerate(per_server_packets):
        got, stats = subscribe_and_assemble(packets, plan, server, full_scale=full_scale)
        chunks.extend(got)
        total.add(stats)
    chunks.sort(key=lambda c: c.first_sample_number)
    return chunks, total


def lose_packets(packets: list[Packet], loss_rate: float, seed: int = 0) -> list[Packet]:
    """The packets left after one uniform draw each, in order, from
    ``default_rng(seed)``: a draw below ``loss_rate`` loses its packet.
    A rate outside [0, 1], or nan, raises ValueError."""
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError(f"loss rate {loss_rate} is not in [0, 1]")
    if not loss_rate:
        return list(packets)
    draws = np.random.default_rng(seed).random(len(packets))
    return [p for p, u in zip(packets, draws) if u >= loss_rate]


def receive_chunks(
    samples: np.ndarray, plan: Numerology, full_scale: float,
    loss_rate: float = 0.0, seed: int = 0,
) -> tuple[list[ChunkRecord], AssemblyStats]:
    """The one receive path of e2e, demod and bench: a capture packetized,
    thinned by ``lose_packets`` and assembled by every server.  The counters
    include the packetizer's residual and clipped sample counts."""
    packed = packetize(samples, plan, full_scale=full_scale)
    packets = lose_packets(packed.packets, loss_rate, seed)
    chunks, stats = assemble_chunks([packets] * plan.distribution.num_servers, plan, full_scale)
    stats.residual_samples, stats.clipped = packed.residual_samples, packed.clipped
    return chunks, stats


class InProcessTransport:
    """Bounded per-subscriber queues standing in for the multicast switch.

    ``queue_depth`` models the per-port switch buffer; when a subscriber
    queue is full the oldest packet is dropped (drop-oldest semantics).
    """

    def __init__(self, plan: Numerology, queue_depth: int = 4096, loss_rate: float = 0.0, seed: int = 0):
        self.plan = plan
        self.queues = [deque(maxlen=queue_depth) for _ in range(plan.distribution.num_servers)]
        self.subs = [
            set(plan.distribution.subscriptions(s))
            for s in range(plan.distribution.num_servers)
        ]
        self.loss_rate = loss_rate
        # only a lossy transport draws, so a loss-free one imports no numpy.random
        self._rng = np.random.default_rng(seed) if loss_rate > 0 else None
        self.dropped_full = 0

    def send(self, packet: Packet) -> None:
        if self._rng is not None and self._rng.random() < self.loss_rate:
            return
        group = group_of_packet(packet.packet_number, self.plan)
        for server, subs in enumerate(self.subs):
            if group in subs:
                q = self.queues[server]
                if q.maxlen is not None and len(q) == q.maxlen:
                    self.dropped_full += 1
                q.append(packet)

    def drain(self, server: int) -> list[Packet]:
        q = self.queues[server]
        out = list(q)
        q.clear()
        return out


MCAST_BASE = "239.77.0.0"
MCAST_PORT = 4660


def group_address(group: int, base: str = MCAST_BASE) -> str:
    b = base.split(".")
    lo = int(b[3]) + group
    return f"{b[0]}.{b[1]}.{int(b[2]) + lo // 256}.{lo % 256}"


class UdpMulticastTransport:
    """One datagram per packet; multicast group index maps to a group IP."""

    def __init__(self, plan: Numerology, port: int = MCAST_PORT, interface: str = "127.0.0.1"):
        self.plan = plan
        self.port = port
        self.interface = interface
        self._tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._tx.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, 0)
        self._tx.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
        self._tx.setsockopt(
            socket.IPPROTO_IP, socket.IP_MULTICAST_IF, socket.inet_aton(interface)
        )

    def send(self, packet: Packet) -> None:
        group = group_of_packet(packet.packet_number, self.plan)
        self._tx.sendto(packet.to_wire(), (group_address(group), self.port))

    def open_receiver(self, server_id: int, timeout: float = 1.0) -> socket.socket:
        rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        rx.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        rx.bind(("", self.port))
        for group in dict.fromkeys(self.plan.distribution.subscriptions(server_id)):
            req = socket.inet_aton(group_address(group)) + socket.inet_aton(self.interface)
            rx.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, req)
        rx.settimeout(timeout)
        return rx

    def close(self) -> None:
        self._tx.close()
