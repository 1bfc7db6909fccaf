"""The composed per-chunk receive chain."""

import numpy as np
import pytest

from chunksdr.channel import ChannelConfig, apply as chan_apply
from chunksdr.demod import DemodTables, demod_chunk
from chunksdr.demod.filters import resample_matched_filter, rx_taps
from chunksdr.distributor import ChunkRecord, assemble_chunks, packetize
from chunksdr.errors import ChunkTooShort
from chunksdr.fec import decode_batch
from chunksdr.iqfile import SC8, dequantize_int8
from chunksdr.modem import generate_stream
from chunksdr.runtime import ReceiverContext, RunStats, process_chunk


class TestResampler:
    def test_output_length_4352(self, desk_plan):
        taps = rx_taps(desk_plan.profile)
        out = resample_matched_filter(np.zeros(4352, np.complex64), taps)
        assert out.size == 5440  # 5/4 exactly; edge trim documented in the op

    def test_dc_gain(self, desk_plan):
        taps = rx_taps(desk_plan.profile)
        out = resample_matched_filter(np.ones(4352, np.complex64), taps)
        mid = out[100:-100]
        assert np.max(np.abs(mid - 1.0)) <= 1e-3

    def test_chunk_too_short(self, desk_plan):
        with pytest.raises(ChunkTooShort):
            resample_matched_filter(np.zeros(40, np.complex64), rx_taps(desk_plan.profile))


class TestWireChunks:
    @pytest.mark.parametrize("full_scale", [1.0, 4.0])
    def test_int8_chunk_demods_as_its_complex64_twin(self, desk_ctx, full_scale):
        """A chunk as the assembler hands it out (8-bit I/Q) and the same
        samples dequantized up front give identical frames and LLRs."""
        plan = desk_ctx.plan
        stream = generate_stream(plan.profile, desk_ctx.codec, 40, seed=7)
        rx = chan_apply(stream.samples, ChannelConfig.for_profile(plan.profile, esn0_db=12.0, seed=8))
        packets = packetize(rx, plan, full_scale=full_scale).packets
        chunks, _ = assemble_chunks([packets], plan, full_scale=full_scale)
        wire = chunks[1]
        assert wire.samples.dtype == SC8 and wire.full_scale == full_scale
        twin = ChunkRecord(wire.first_sample_number, dequantize_int8(wire.samples, full_scale))
        a = demod_chunk(wire, desk_ctx.tables)
        b = demod_chunk(twin, desk_ctx.tables)
        assert a.frames, "no frames recovered"
        assert [f.start_sample_number for f in a.frames] == [
            f.start_sample_number for f in b.frames
        ]
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa.llrs, fb.llrs)
        assert (a.peak_ratio, a.noise_var) == (b.peak_ratio, b.noise_var)


class TestChunkIndependence:
    def test_identical_chunks_identical_softframes(self, desk_ctx, desk_stream_16):
        """demod is a pure function of (chunk, tables): two table instances
        and repeated calls agree bit for bit."""
        plan = desk_ctx.plan
        chunk = ChunkRecord(0, desk_stream_16.samples[: plan.chunk.chunk_samples])
        fresh_tables = DemodTables.for_profile(plan.profile)
        a = demod_chunk(chunk, desk_ctx.tables)
        b = demod_chunk(chunk, fresh_tables)
        assert [f.start_sample_number for f in a.frames] == [
            f.start_sample_number for f in b.frames
        ]
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa.llrs, fb.llrs)

    def test_frame_boundaries_exact_at_inf_snr(self, desk_ctx, desk_stream_16):
        """Every emitted start_sample_number equals the transmitted boundary."""
        plan = desk_ctx.plan
        chunk = ChunkRecord(0, desk_stream_16.samples[: plan.chunk.chunk_samples])
        result = demod_chunk(chunk, desk_ctx.tables)
        assert result.frames, "no frames recovered"
        for frame in result.frames:
            assert frame.start_sample_number % plan.frame_samples == 0

    def test_frame_boundaries_exact_at_10ppm(self, desk_ctx, desk_stream_16):
        """Boundary snapping keeps transmit-grid keys under clock offset, so
        overlap duplicates from different chunks carry equal keys."""
        plan = desk_ctx.plan
        rx = chan_apply(desk_stream_16.samples, ChannelConfig(clock_offset_ppm=10))
        chunk = ChunkRecord(0, rx[: plan.chunk.chunk_samples])
        result = demod_chunk(chunk, desk_ctx.tables)
        for frame in result.frames:
            assert frame.start_sample_number % plan.frame_samples == 0

    def test_sync_failure_counted_not_fatal(self, desk_ctx):
        rng = np.random.default_rng(3)
        n = desk_ctx.plan.chunk.chunk_samples
        noise = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)
        result = demod_chunk(ChunkRecord(0, noise), desk_ctx.tables)
        assert result.sync_failed
        assert result.frames == []

    def test_sync_failure_keeps_framesync_time(self, desk_ctx):
        """The time spent on a failed sync still reaches the run's stage totals."""
        rng = np.random.default_rng(4)
        n = desk_ctx.plan.chunk.chunk_samples
        noise = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)
        _, result, elapsed = process_chunk(ChunkRecord(0, noise), desk_ctx)
        assert result.sync_failed
        stats = RunStats()
        stats.absorb(result, elapsed, desk_ctx.plan.chunk.guaranteed_frames)
        assert stats.stage_seconds["framesync"] > 0.0
        assert "softbits" not in stats.stage_seconds


class TestLoopback:
    def test_payload_bits_exact_at_15db(self, desk_ctx):
        """TX -> channel at 15 dB -> per-chunk receive chain -> exact bits."""
        plan = desk_ctx.plan
        stream = generate_stream(plan.profile, desk_ctx.codec, 22, seed=7)
        rx = chan_apply(
            stream.samples,
            ChannelConfig.for_profile(plan.profile, esn0_db=15.0, seed=8),
        )
        chunk = ChunkRecord(0, rx[: plan.chunk.chunk_samples])
        blocks, result, _ = process_chunk(chunk, desk_ctx)
        assert len(blocks) >= plan.chunk.guaranteed_frames
        for block in blocks:
            assert not block.failed
            f = block.start_sample_number // plan.frame_samples
            np.testing.assert_array_equal(block.info_bits, stream.info_bits[f])


class TestPaperProfile:
    def test_single_chunk_guaranteed_frames(self):
        """The full-rate geometry runs through the same chain: one chunk
        yields at least the 16 guaranteed frames, bit-exact at high SNR."""
        ctx = ReceiverContext.build("paper")
        plan = ctx.plan
        stream = generate_stream(plan.profile, ctx.codec, 19, seed=1)
        chunk = ChunkRecord(0, stream.samples[: plan.chunk.chunk_samples])
        blocks, result, _ = process_chunk(chunk, ctx)
        assert len(blocks) >= 16
        for block in blocks:
            f = block.start_sample_number // plan.frame_samples
            np.testing.assert_array_equal(block.info_bits, stream.info_bits[f])
