"""Transmit chain: constellation, framing, interleaving, pulse shaping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunksdr.errors import LengthMismatch, LengthNotDivisible
from chunksdr.fec import PassthroughCodec
from chunksdr.modem import (
    Preamble,
    build_frame,
    deinterleave,
    interleave,
    pulse_shape,
    rrc_taps,
    tx_rx_taps,
)


class TestConstellation:
    def test_unit_magnitude(self, constellation):
        np.testing.assert_allclose(np.abs(constellation.points), 1.0, atol=1e-7)

    def test_gray_by_enumeration(self, constellation):
        """Adjacent points (including the wrap) differ in exactly one bit."""
        labels = constellation.labels
        for k in range(8):
            diff = int(labels[k]) ^ int(labels[(k + 1) % 8])
            assert bin(diff).count("1") == 1

    def test_map_bits_roundtrip(self, constellation):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 3 * 100)
        points = constellation.map_bits(bits)
        # recover bits from the point angles
        pos = np.round(np.angle(points) * 4 / np.pi).astype(int) % 8
        got = constellation.bits_of_position[pos].reshape(-1)
        np.testing.assert_array_equal(got, bits)


class TestPreamble:
    def test_deterministic(self, desk_plan):
        a = Preamble.for_profile(desk_plan.profile)
        b = Preamble.for_profile(desk_plan.profile)
        np.testing.assert_array_equal(a.symbols, b.symbols)
        assert a.symbols.size == desk_plan.profile.preamble_symbols

    def test_unit_magnitude(self, desk_plan):
        p = Preamble.for_profile(desk_plan.profile)
        np.testing.assert_allclose(np.abs(p.symbols), 1.0, atol=1e-6)

    def test_conj_fft_matches_direct(self, desk_plan):
        p = Preamble.for_profile(desk_plan.profile)
        n = desk_plan.profile.frame_symbols
        padded = np.zeros(n, np.complex64)
        padded[: p.symbols.size] = p.symbols
        np.testing.assert_allclose(p.conj_fft(n), np.conj(np.fft.fft(padded)), rtol=1e-5)


class TestInterleaver:
    def test_hand_permuted_block(self):
        got = interleave(np.array([0, 1, 2, 3, 4, 5]), columns=3)
        np.testing.assert_array_equal(got, [0, 2, 4, 1, 3, 5])

    def test_single_column_identity(self):
        bits = np.arange(10)
        np.testing.assert_array_equal(interleave(bits, columns=1), bits)

    def test_roundtrip_64800(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 64800)
        np.testing.assert_array_equal(deinterleave(interleave(bits)), bits)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=6))
    @settings(max_examples=50)
    def test_roundtrip_property(self, rows, columns):
        rng = np.random.default_rng(rows * 7 + columns)
        bits = rng.integers(0, 2, rows * columns)
        np.testing.assert_array_equal(deinterleave(interleave(bits, columns), columns), bits)

    def test_length_not_divisible(self):
        with pytest.raises(LengthNotDivisible):
            interleave(np.zeros(7), columns=3)


class TestBuildFrame:
    def test_desk_frame_with_passthrough(self, desk_plan):
        profile = desk_plan.profile
        codec = PassthroughCodec(profile.payload_bits)
        frame = build_frame(np.zeros(codec.k, np.uint8), profile, codec)
        assert frame.size == 1050
        preamble = Preamble.for_profile(profile)
        np.testing.assert_array_equal(frame[:30], preamble.symbols)

    def test_paper_frame_symbol_count(self, paper_plan):
        profile = paper_plan.profile
        codec = PassthroughCodec(profile.payload_bits)
        frame = build_frame(np.zeros(codec.k, np.uint8), profile, codec)
        assert frame.size == 21690

    def test_deterministic(self, desk_plan):
        profile = desk_plan.profile
        codec = PassthroughCodec(profile.payload_bits)
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, codec.k).astype(np.uint8)
        np.testing.assert_array_equal(
            build_frame(bits, profile, codec), build_frame(bits, profile, codec)
        )

    def test_length_mismatch(self, desk_plan):
        codec = PassthroughCodec(desk_plan.profile.payload_bits)
        with pytest.raises(LengthMismatch):
            build_frame(np.zeros(10, np.uint8), desk_plan.profile, codec)


class TestPulseShape:
    def test_impulse_response_symmetric(self, desk_plan):
        """A single unit symbol produces the (symmetric) shaping taps."""
        profile = desk_plan.profile
        symbols = np.zeros(200, np.complex64)
        symbols[100] = 1.0
        out = pulse_shape(symbols, profile)
        peak = int(np.argmax(np.abs(out)))
        assert peak == 160  # symbol 100 at 8/5 samples/symbol
        span = 30
        left = out[peak - span : peak].real
        right = out[peak + 1 : peak + span + 1].real[::-1]
        np.testing.assert_allclose(left, right, atol=1e-5)

    def test_output_length_17_frames(self, desk_plan):
        n = 17 * desk_plan.profile.frame_symbols
        out = pulse_shape(np.zeros(n, np.complex64), desk_plan.profile)
        assert out.size == 17 * desk_plan.frame_samples

    def test_nyquist_cascade_oracle(self, desk_plan, random_symbols):
        """TX then matched RX: symbol centers reproduce the symbols.

        Oracle: direct convolution through the true tap cascade, no resampler
        machinery shared with the implementation under test.
        """
        from chunksdr.demod.filters import resample_matched_filter, rx_taps

        profile = desk_plan.profile
        symbols = random_symbols(4000, seed=11)
        rx = resample_matched_filter(pulse_shape(symbols, profile), rx_taps(profile))
        centers = rx[0 : 2 * symbols.size : 2]
        guard = 40
        err = centers[guard:-guard] - symbols[guard:-guard]
        rms = float(np.sqrt(np.mean(np.abs(err) ** 2)))
        assert rms <= 1e-3

        # independent oracle: the full-rate cascade impulse response must be
        # Nyquist (zero at nonzero symbol-spaced lags)
        tx_taps, rtaps = tx_rx_taps(profile.rolloff)
        cascade = np.convolve(tx_taps, rtaps)
        center = len(cascade) // 2
        lags = cascade[center + 8 :: 8]  # 8 internal samples per symbol
        assert np.max(np.abs(lags)) < 0.02

    def test_rrc_taps_symmetric(self):
        taps = rrc_taps(rolloff=0.25)
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-12)
