"""Packetization, chunk assembly, transports, and file formats."""

import pickle
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunksdr import iqfile
from chunksdr.distributor import (
    MAX_DROPPED_LISTED,
    AssemblyStats,
    ChunkAssembler,
    InProcessTransport,
    Packet,
    UdpMulticastTransport,
    assemble_chunks,
    lose_packets,
    packetize,
    subscribe_and_assemble,
)
from chunksdr.numerology import load_numerology


@pytest.fixture(scope="module")
def paper2():
    return load_numerology("paper", servers=2)


class TestPacketize:
    def test_one_paper_packet(self, paper2):
        iq = np.full(4352, 0.5 + 0.5j, dtype=np.complex64)
        result = packetize(iq, paper2)
        assert len(result.packets) == 1
        assert len(result.packets[0].payload) == 8704
        assert result.residual_samples == 0

    def test_partial_packet_reported(self, paper2):
        result = packetize(np.zeros(4351, np.complex64), paper2)
        assert len(result.packets) == 0
        assert result.residual_samples == 4351

    def test_full_scale_maps_to_127(self, desk_plan):
        iq = np.zeros(224, np.complex64)
        iq[0] = 1.0
        result = packetize(iq, desk_plan)
        raw = np.frombuffer(result.packets[0].payload, np.int8)
        assert raw[0] == 127 and raw[1] == 0

    def test_sequential_numbering(self, desk_plan):
        result = packetize(np.zeros(224 * 5, np.complex64), desk_plan, first_packet_number=7)
        assert [p.packet_number for p in result.packets] == [7, 8, 9, 10, 11]


class TestDequantize:
    def test_exact_values(self, desk_plan):
        payload = np.zeros(448, np.int8)
        payload[0] = 127
        pkt = Packet(packet_number=0, payload=payload.tobytes())
        samples = iqfile.dequantize_int8(pkt.payload)
        assert samples[0] == 1.0 + 0.0j
        assert samples[1] == 0.0 + 0.0j

    def test_roundtrip_error_bound(self, desk_plan):
        rng = np.random.default_rng(0)
        iq = (rng.uniform(-1, 1, 2240) + 1j * rng.uniform(-1, 1, 2240)).astype(np.complex64)
        result = packetize(iq, desk_plan)
        back = np.concatenate([iqfile.dequantize_int8(p.payload) for p in result.packets])
        err = back - iq
        assert np.max(np.abs(err.real)) <= 1 / 254 + 1e-9
        assert np.max(np.abs(err.imag)) <= 1 / 254 + 1e-9
        # uniform-quantizer oracle: rms ~ q/sqrt(12) per component
        rms = np.sqrt(np.mean(err.real**2 + err.imag**2) / 2)
        assert rms <= 0.0023

    def test_negation_exact(self):
        x = np.array([0.37 - 0.61j], np.complex64)
        a = iqfile.quantize_int8(x)
        b = iqfile.quantize_int8(-x)
        np.testing.assert_array_equal(a, -b)


class TestAssembly:
    def test_two_server_walk(self, paper2):
        """Packets 0..271 lossless: server 0 assembles the chunk at sample 0,
        server 1 the chunk at 591872 - 34816 (packets 128..263)."""
        packets = [
            Packet(packet_number=i, payload=bytes(8704)) for i in range(272)
        ]
        chunks0, stats0 = subscribe_and_assemble(packets, paper2, 0)
        chunks1, stats1 = subscribe_and_assemble(packets, paper2, 1)
        assert [c.first_sample_number for c in chunks0] == [0]
        assert [c.first_sample_number for c in chunks1] == [591872 - 34816]
        assert chunks0[0].samples.size == paper2.chunk.chunk_samples
        assert stats0.chunks_dropped == 0 and stats1.chunks_dropped == 0

    def test_single_server_overlap(self, desk_plan):
        plan = load_numerology("desk", servers=1)
        n = plan.chunk.advance_packets * 3 + plan.chunk.packets_per_chunk
        rng = np.random.default_rng(1)
        iq = (rng.normal(size=n * 224) + 1j * rng.normal(size=n * 224)).astype(np.complex64) * 0.2
        packets = packetize(iq, plan).packets
        chunks, _ = subscribe_and_assemble(packets, plan, 0)
        assert len(chunks) == 4
        overlap = plan.chunk.overlap_samples
        for a, b in zip(chunks, chunks[1:]):
            assert b.first_sample_number - a.first_sample_number == plan.chunk.advance_samples
            np.testing.assert_array_equal(a.samples[-overlap:], b.samples[:overlap])

    def test_missing_packet_erases_its_span_only(self, desk_plan):
        """A lost packet zero-fills its span of the chunk, listed as erased;
        the chunk is handed out once, when its last packet arrives."""
        plan = load_numerology("desk", servers=1)
        spp = plan.packet.samples_per_packet
        n = plan.chunk.advance_packets + plan.chunk.packets_per_chunk
        rng = np.random.default_rng(6)
        iq = (rng.normal(size=n * spp) + 1j * rng.normal(size=n * spp)).astype(np.complex64) * 0.2
        packets = [p for p in packetize(iq, plan).packets if p.packet_number != 5]
        asm = ChunkAssembler(plan, 0)
        closed_on = {}
        for p in packets:
            for chunk in asm.push(p):
                closed_on[chunk.first_sample_number] = (p.packet_number, chunk)
        for chunk in asm.flush():
            closed_on[chunk.first_sample_number] = (None, chunk)
        last = plan.chunk.packets_per_chunk - 1
        assert closed_on[0][0] == last  # packet 135, not the next chunk's
        chunk = closed_on[0][1]
        assert chunk.erased == ((5 * spp, 6 * spp),)
        want = iqfile.quantize_int8(iq[: plan.chunk.chunk_samples]).view(iqfile.SC8)
        want[5 * spp : 6 * spp] = np.zeros(1, iqfile.SC8)
        assert chunk.samples.tobytes() == want.tobytes()
        assert closed_on[plan.chunk.advance_samples][1].erased == ()
        assert len(closed_on) == 2
        assert (asm.stats.chunks_emitted, asm.stats.chunks_dropped) == (2, 0)
        assert (asm.stats.chunks_partial, asm.stats.packets_missing) == (1, 1)
        assert asm.stats.dropped_first_samples == []

    @pytest.mark.parametrize(
        "size", [447, 428, 450], ids=["odd-length", "20-bytes-short", "2-bytes-long"]
    )
    def test_malformed_packet_is_counted_and_erased(self, desk_plan, size):
        """A payload of the wrong length is dropped on arrival and counted;
        its chunk keeps its length, with the packet's span erased as a lost
        packet's is, and the stream goes on."""
        plan = desk_plan
        spp = plan.packet.samples_per_packet
        n = plan.chunk.advance_packets + plan.chunk.packets_per_chunk
        rng = np.random.default_rng(6)
        iq = (rng.normal(size=n * spp) + 1j * rng.normal(size=n * spp)).astype(np.complex64) * 0.2
        packets = packetize(iq, plan).packets
        payload = (packets[5].payload * 2)[:size]
        packets[5] = Packet(packet_number=5, payload=payload)
        chunks, stats = subscribe_and_assemble(packets, plan, 0)
        assert [len(c.samples) for c in chunks] == [plan.chunk.chunk_samples] * len(chunks)
        assert chunks[0].first_sample_number == 0
        assert chunks[0].erased == ((5 * spp, 6 * spp),)
        want = iqfile.quantize_int8(iq[: plan.chunk.chunk_samples]).view(iqfile.SC8)
        want[5 * spp : 6 * spp] = np.zeros(1, iqfile.SC8)
        assert chunks[0].samples.tobytes() == want.tobytes()
        assert (stats.packets_malformed, stats.chunks_partial, stats.packets_missing) == (1, 1, 1)
        total = AssemblyStats()
        total.add(stats)
        total.add(stats)
        assert total.packets_malformed == 2

    def test_lost_last_packet_closes_at_the_next_packet(self, desk_plan):
        """Without its last packet a window closes at the server's next
        packet; a window with no packet at all is dropped, never handed out."""
        plan = load_numerology("desk", servers=2)
        ppc, adv = plan.chunk.packets_per_chunk, plan.chunk.advance_packets
        packets = packetize(np.zeros((2 * adv + ppc) * 224, np.complex64), plan).packets
        transport = InProcessTransport(plan)
        for p in packets:
            if p.packet_number != ppc - 1:
                transport.send(p)
        asm = ChunkAssembler(plan, 0)
        closed_on = {}
        for p in transport.drain(0):
            for chunk in asm.push(p):
                closed_on[chunk.first_sample_number] = p.packet_number
        assert closed_on == {0: 2 * adv, 2 * adv * 224: 2 * adv + ppc - 1}
        empty = ChunkAssembler(plan, 0)
        assert empty.push(packets[2 * adv]) == []  # chunk 0 got nothing
        assert (empty.stats.chunks_dropped, empty.stats.dropped_first_samples) == (1, [0])

    @pytest.mark.parametrize("number", [10**6, 2**63], ids=["1e6", "2^63"])
    def test_far_ahead_packet_drops_the_windows_it_skips_at_once(self, desk_plan, number):
        """A packet far past the stream drops every window it has passed in
        one step: chunk 0 is handed out partial, the windows after it up to
        the first one the packet falls in are counted as dropped, and only
        the first `MAX_DROPPED_LISTED` of them are listed."""
        plan = desk_plan
        ppc, adv = plan.chunk.packets_per_chunk, plan.chunk.advance_packets
        packets = packetize(np.zeros(6 * 224, np.complex64), plan).packets
        asm = ChunkAssembler(plan, 0)
        for p in packets:
            assert asm.push(p) == []
        t0 = time.perf_counter()
        closed = asm.push(Packet(number, packets[0].payload))
        assert time.perf_counter() - t0 < 1.0
        skipped = -(-(number - ppc + 1) // adv) - 1  # chunks 1 .. before the packet's first
        assert [c.first_sample_number for c in closed] == [0]
        assert asm.stats.chunks_dropped == skipped
        listed = min(skipped, MAX_DROPPED_LISTED)
        assert asm.stats.dropped_first_samples == [
            c * plan.chunk.advance_samples for c in range(1, 1 + listed)
        ]
        if number == 10**6:
            assert skipped == 7811

    def test_two_servers_sum_every_counter(self):
        """`assemble_chunks` adds the servers' counters field by field.
        Server 0 gets a short packet 5 in chunk 0; server 1's stream starts
        at chunk 3, so its chunk 1 gets no packet and is dropped."""
        plan = load_numerology("desk", servers=2)
        ppc, adv = plan.chunk.packets_per_chunk, plan.chunk.advance_packets
        packets = packetize(np.zeros((4 * adv + ppc) * 224, np.complex64), plan).packets
        streams = [
            [Packet(5, b"short") if p.packet_number == 5 else p for p in packets],
            [p for p in packets if p.packet_number >= 3 * adv],
        ]
        per_server = [subscribe_and_assemble(s, plan, i)[1] for i, s in enumerate(streams)]
        _, total = assemble_chunks(streams, plan)
        for f in fields(AssemblyStats):
            first, second = (getattr(s, f.name) for s in per_server)
            assert getattr(total, f.name) == first + second, f.name
        assert (total.chunks_emitted, total.chunks_dropped, total.chunks_partial) == (4, 1, 1)
        assert (total.packets_missing, total.packets_malformed) == (1, 1)
        assert total.dropped_first_samples == [adv * 224]

    def test_overlap_bytes_identical_across_servers(self, paper2):
        """Shared groups deliver byte-identical samples to both subscribers."""
        rng = np.random.default_rng(2)
        n = 264 * 4352
        iq = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64) * 0.2
        packets = packetize(iq, paper2).packets
        chunks0, _ = subscribe_and_assemble(packets, paper2, 0)
        chunks1, _ = subscribe_and_assemble(packets, paper2, 1)
        overlap = paper2.chunk.overlap_samples
        np.testing.assert_array_equal(chunks0[0].samples[-overlap:], chunks1[0].samples[:overlap])

    def test_assembled_chunk_pickles_at_wire_size(self, desk_plan):
        """A chunk crosses to a process worker as its 8-bit I/Q: at most 2
        bytes per sample plus 1 kB, not complex64's 8."""
        plan = load_numerology("desk", servers=1)
        packets = packetize(np.zeros(plan.chunk.chunk_samples, np.complex64), plan).packets
        (chunk,), _ = subscribe_and_assemble(packets, plan, 0)
        assert len(chunk.samples) == plan.chunk.chunk_samples
        assert len(pickle.dumps(chunk)) <= 2 * plan.chunk.chunk_samples + 1024

    @pytest.mark.parametrize("plan_name", ["desk", "paper2"])
    @pytest.mark.parametrize("full_scale", [1.0, 0.3])
    def test_assembled_samples_dequantize_to_joined_payloads(self, paper2, plan_name, full_scale):
        """Dequantized, an assembled chunk is its packets' joined payloads
        dequantized: the samples the feeder used to hand out."""
        plan = paper2 if plan_name == "paper2" else load_numerology("desk", servers=1)
        n = plan.chunk.packets_per_chunk * plan.packet.samples_per_packet
        rng = np.random.default_rng(5)
        iq = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64) * 0.2
        packets = packetize(iq, plan, full_scale=full_scale).packets
        (chunk,), _ = subscribe_and_assemble(packets, plan, 0, full_scale=full_scale)
        joined = b"".join(p.payload for p in packets)
        want = iqfile.dequantize_int8(joined, full_scale)
        assert chunk.samples.dtype == iqfile.SC8 and chunk.full_scale == full_scale
        for got in (
            iqfile.dequantize_int8(chunk.samples, chunk.full_scale),
            iqfile.dequantize_int8(chunk.samples, chunk.full_scale, out=np.empty(n, np.complex64)),
        ):
            assert got.dtype == np.complex64
            assert got.tobytes() == want.tobytes()

    def test_out_of_range_server(self, paper2):
        with pytest.raises(ValueError):
            ChunkAssembler(paper2, server_id=2)


class TestInProcessTransport:
    def test_duplicates_overlap_groups_only(self, paper2):
        transport = InProcessTransport(paper2)
        packets = packetize(np.zeros(272 * 4352, np.complex64), paper2).packets
        for p in packets:
            transport.send(p)
        q0 = transport.drain(0)
        q1 = transport.drain(1)
        # server 0: groups 0..16 = packets 0..135, plus the next cycle's
        # groups 0 and 1 (absolute groups 32, 33 = packets 256..271)
        assert [p.packet_number for p in q0] == list(range(136)) + list(range(256, 272))
        assert [p.packet_number for p in q1] == list(range(0, 8)) + list(range(128, 264))

    def test_loss(self, desk_plan):
        plan = load_numerology("desk", servers=1)
        transport = InProcessTransport(plan, loss_rate=0.5, seed=1)
        packets = packetize(np.zeros(100 * 224, np.complex64), plan).packets
        for p in packets:
            transport.send(p)
        got = transport.drain(0)
        assert 20 < len(got) < 80

    def test_queue_depth_drop_oldest(self, desk_plan):
        plan = load_numerology("desk", servers=1)
        transport = InProcessTransport(plan, queue_depth=10)
        packets = packetize(np.zeros(20 * 224, np.complex64), plan).packets
        for p in packets:
            transport.send(p)
        got = transport.drain(0)
        assert [p.packet_number for p in got] == list(range(10, 20))
        assert transport.dropped_full == 10


class TestLosePackets:
    @pytest.mark.parametrize("rate", [float("nan"), -0.5, -1e-9, 1.5, float("inf"), float("-inf")])
    def test_rate_outside_unit_interval_raises(self, rate):
        """nan used to lose every packet, a negative rate none."""
        with pytest.raises(ValueError, match=r"not in \[0, 1\]"):
            lose_packets(list(range(1000)), rate, seed=0)

    def test_unit_interval_ends(self):
        packets = list(range(1000))
        assert lose_packets(packets, 0.0, seed=0) == packets
        assert lose_packets(packets, 1.0, seed=0) == []
        assert 400 < len(lose_packets(packets, 0.5, seed=0)) < 600


class TestWireFormat:
    def test_roundtrip(self):
        pkt = Packet(packet_number=1234567, payload=bytes(range(64)))
        wire = pkt.to_wire()
        assert wire[:8] == (1234567).to_bytes(8, "little")
        back = Packet.from_wire(wire)
        assert back.packet_number == pkt.packet_number
        assert back.payload == pkt.payload

    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=20)
    def test_number_roundtrip(self, number):
        assert Packet.from_wire(Packet(number, b"\x00" * 16).to_wire()).packet_number == number


class TestIqFiles:
    def test_cf32_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        x = (rng.normal(size=100) + 1j * rng.normal(size=100)).astype(np.complex64)
        p = tmp_path / "x.cf32"
        iqfile.write_cf32(p, x)
        assert p.stat().st_size == 800
        np.testing.assert_array_equal(iqfile.read_cf32(p), x)

    def test_sc8_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        x = (rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100)).astype(np.complex64)
        p = tmp_path / "x.sc8"
        iqfile.quantize_int8(x).tofile(p)
        assert p.stat().st_size == 200
        back = iqfile.dequantize_int8(np.fromfile(p, np.int8))
        assert np.max(np.abs(back - x)) <= np.sqrt(2) / 254 + 1e-9


def _udp_available() -> bool:
    import socket

    try:
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("", 0))
        req = socket.inet_aton("239.77.0.1") + socket.inet_aton("127.0.0.1")
        s.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, req)
        s.close()
        return True
    except OSError:
        return False


@pytest.mark.skipif(not _udp_available(), reason="multicast sockets unavailable")
class TestUdpMulticast:
    def test_loopback_delivery(self, desk_plan):
        import socket

        plan = load_numerology("desk", servers=1)
        transport = UdpMulticastTransport(plan, port=24660)
        rx = transport.open_receiver(0, timeout=2.0)
        packets = packetize(np.zeros(8 * 224, np.complex64), plan).packets
        for p in packets:
            transport.send(p)
        got = []
        try:
            for _ in range(8):
                data, _ = rx.recvfrom(65536)
                got.append(Packet.from_wire(data).packet_number)
        except (TimeoutError, socket.timeout):
            pass
        finally:
            rx.close()
            transport.close()
        assert sorted(got) == list(range(8))
