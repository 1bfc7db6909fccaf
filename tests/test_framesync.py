"""Coherent frame synchronization."""

from dataclasses import replace

import numpy as np
import pytest

from chunksdr.demod.framesync import coherent_offset, frame_sync
from chunksdr.errors import NoPeak
from chunksdr.fec import PassthroughCodec
from chunksdr.modem import Preamble, build_frame
from chunksdr.numerology import load_profile


def make_symbol_stream(profile, n_frames, seed=0, lead_symbols=0):
    """Frames of random payload symbols behind the profile preamble."""
    codec = PassthroughCodec(profile.payload_bits)
    rng = np.random.default_rng(seed)
    frames = [
        build_frame(rng.integers(0, 2, codec.k).astype(np.uint8), profile, codec)
        for _ in range(n_frames)
    ]
    stream = np.concatenate(frames)
    if lead_symbols:
        lead = np.exp(2j * np.pi * rng.random(lead_symbols)).astype(np.complex64)
        stream = np.concatenate([lead, stream])
    return stream


class TestOffsets:
    def test_aligned_frames(self, desk_plan):
        profile = desk_plan.profile
        stream = make_symbol_stream(profile, 17, seed=1)
        result = frame_sync(stream, Preamble.for_profile(profile), profile.frame_symbols)
        assert result.offset == 0
        np.testing.assert_array_equal(
            result.frame_starts, profile.frame_symbols * np.arange(17)
        )
        assert result.payloads.shape == (17, profile.payload_symbols)

    def test_offset_detected(self, desk_plan):
        profile = desk_plan.profile
        stream = make_symbol_stream(profile, 17, seed=2, lead_symbols=311)
        result = frame_sync(stream, Preamble.for_profile(profile), profile.frame_symbols)
        assert result.offset == 311
        assert result.frame_starts.size == 17

    def test_extra_frame_when_offset_small(self, desk_plan):
        """A chunk starting just before a frame start can yield one more
        complete frame than the nominal count."""
        profile = desk_plan.profile
        f = profile.frame_symbols
        stream = make_symbol_stream(profile, 18, seed=3)[f - 1 : 2 * f - 1 + 16 * f + 40]
        result = frame_sync(stream, Preamble.for_profile(profile), f)
        assert result.offset == 1
        assert result.frame_starts.size == 17

    def test_discards_tail_partial_frame(self, desk_plan):
        profile = desk_plan.profile
        f = profile.frame_symbols
        stream = make_symbol_stream(profile, 5, seed=4)[: 4 * f + 100]
        result = frame_sync(stream, Preamble.for_profile(profile), f)
        assert result.frame_starts.size == 4

    def test_rotation_estimate(self, desk_plan):
        profile = desk_plan.profile
        stream = make_symbol_stream(profile, 6, seed=5) * np.exp(1j * np.pi / 4)
        result = frame_sync(stream, Preamble.for_profile(profile), profile.frame_symbols)
        assert abs(result.rotation - np.pi / 4) < 0.02

    def test_noise_var_estimate(self, desk_plan):
        profile = desk_plan.profile
        rng = np.random.default_rng(6)
        stream = make_symbol_stream(profile, 8, seed=6)
        sigma2 = 0.1
        noise = rng.normal(scale=np.sqrt(sigma2 / 2), size=stream.size)
        noise = noise + 1j * rng.normal(scale=np.sqrt(sigma2 / 2), size=stream.size)
        result = frame_sync(
            stream + noise.astype(np.complex64),
            Preamble.for_profile(profile),
            profile.frame_symbols,
        )
        assert abs(result.noise_var - sigma2) / sigma2 < 0.3


class TestNoPeak:
    def test_pure_noise_raises(self, desk_plan):
        profile = desk_plan.profile
        rng = np.random.default_rng(7)
        noise = (rng.normal(size=4 * profile.frame_symbols)
                 + 1j * rng.normal(size=4 * profile.frame_symbols)).astype(np.complex64)
        with pytest.raises(NoPeak):
            frame_sync(noise, Preamble.for_profile(profile), profile.frame_symbols)

    def test_too_short_raises(self, desk_plan):
        profile = desk_plan.profile
        with pytest.raises(NoPeak):
            frame_sync(
                np.zeros(profile.frame_symbols, np.complex64),
                Preamble.for_profile(profile),
                profile.frame_symbols,
            )


class TestCoherentGain:
    """Summing frames before correlating beats single-frame detection."""

    @staticmethod
    def _profile():
        profile, _ = load_profile("desk")
        # short preamble so the single-frame detector visibly struggles at 0 dB
        return replace(profile, preamble_symbols=16, payload_symbols=1034,
                       codec="passthrough")

    def test_detection_rates_at_0db(self):
        profile = self._profile()
        f = profile.frame_symbols
        preamble = Preamble.for_profile(profile)
        rng = np.random.default_rng(8)
        trials = 60
        coherent_hits = single_hits = 0
        clean = make_symbol_stream(profile, 17, seed=9)
        for t in range(trials):
            noise = (rng.normal(size=clean.size) + 1j * rng.normal(size=clean.size)).astype(
                np.complex64
            )  # Es/N0 = 0 dB: unit noise power per symbol
            x = clean + noise
            off_c, _ = coherent_offset(x, preamble, f)
            off_s, _ = coherent_offset(x[:f], preamble, f)
            coherent_hits += off_c == 0
            single_hits += off_s == 0
        assert coherent_hits >= 0.95 * trials
        assert coherent_hits > single_hits


class TestErasedSymbols:
    def test_erased_preamble_symbols_leave_the_estimates(self, desk_plan):
        """A zero-filled preamble would read as noise power 1; marked erased,
        its symbols leave the rotation and noise estimates."""
        profile = desk_plan.profile
        rng = np.random.default_rng(9)
        stream = make_symbol_stream(profile, 6, seed=9) * np.exp(0.3j)
        noise = 0.05 * (rng.normal(size=stream.size) + 1j * rng.normal(size=stream.size))
        stream = (stream + noise).astype(np.complex64)
        preamble = Preamble.for_profile(profile)
        f = profile.frame_symbols
        clean = frame_sync(stream, preamble, f)
        holed = stream.copy()
        erased = np.zeros(stream.size, bool)
        erased[2 * f - 10 : 2 * f + 20] = True  # the tail of a payload and frame 2's preamble
        holed[erased] = 0
        blind = frame_sync(holed, preamble, f)
        aware = frame_sync(holed, preamble, f, erased=erased)
        assert blind.noise_var > 2 * clean.noise_var
        keep = np.ones(f * 6, bool)
        keep[2 * f : 2 * f + 20] = False
        pre = (np.arange(f * 6) % f) < preamble.symbols.size
        known = np.tile(preamble.symbols, 6)[keep[pre]]
        rx = stream[pre & keep]
        rotation = float(np.angle(np.vdot(known, rx)))
        assert aware.rotation == pytest.approx(rotation, abs=1e-6)
        want = float(np.mean(np.abs(rx * np.exp(-1j * rotation) - known) ** 2))
        assert aware.noise_var == pytest.approx(want, rel=1e-5)
