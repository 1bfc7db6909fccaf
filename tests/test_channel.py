"""Channel impairments: clock offset resampling, rotation, calibrated noise."""

import math

import numpy as np
import pytest

from chunksdr.channel import ChannelConfig, apply
from chunksdr.errors import LengthMismatch
from chunksdr.numerology import WaveformProfile


def measure_esn0(clean: np.ndarray, noisy: np.ndarray) -> float:
    """Estimate Es/N0 in dB from a clean/noisy pair; +inf when noiseless."""
    clean = np.asarray(clean)
    noisy = np.asarray(noisy)
    if clean.size != noisy.size:
        raise LengthMismatch(f"{clean.size} vs {noisy.size} samples")
    noise_power = float(np.mean(np.abs(noisy - clean) ** 2))
    if noise_power == 0.0:
        return math.inf
    es = float(np.mean(np.abs(clean) ** 2)) * float(WaveformProfile.samples_per_symbol)
    return 10.0 * math.log10(es / noise_power)


class TestClockOffset:
    def test_zero_everything_is_identity(self):
        rng = np.random.default_rng(0)
        x = (rng.normal(size=1000) + 1j * rng.normal(size=1000)).astype(np.complex64)
        y = apply(x, ChannelConfig())
        np.testing.assert_array_equal(x, y)

    def test_ten_ppm_adds_ten_samples_per_million(self):
        x = np.ones(10**6, dtype=np.complex64)
        y = apply(x, ChannelConfig(clock_offset_ppm=10))
        assert y.size == 10**6 + 10

    def test_negative_ppm_shortens(self):
        x = np.ones(10**5, dtype=np.complex64)
        y = apply(x, ChannelConfig(clock_offset_ppm=-10))
        assert y.size == 10**5 - 1

    def test_phase_continuity_tone_stays_tone(self):
        """Resampling must not smear a tone across bins (no block seams)."""
        n = 2**16
        f = 0.1
        x = np.exp(2j * np.pi * f * np.arange(n)).astype(np.complex64)
        y = apply(x, ChannelConfig(clock_offset_ppm=10))[: n]
        spec = np.abs(np.fft.fft(y * np.hanning(n)))
        peak = int(np.argmax(spec))
        assert abs(peak - round(f * n)) <= 1
        others = np.delete(spec, range(peak - 8, peak + 9))
        assert spec[peak] > 50 * others.max()


class TestRotation:
    def test_dc_becomes_tone(self):
        n = 4096
        x = np.ones(n, dtype=np.complex64)
        y = apply(x, ChannelConfig(carrier_freq_offset=0.01))
        spec = np.abs(np.fft.fft(y))
        assert int(np.argmax(spec)) == round(0.01 * n)

    def test_initial_phase(self):
        x = np.ones(10, dtype=np.complex64)
        y = apply(x, ChannelConfig(initial_phase=np.pi / 3))
        np.testing.assert_allclose(np.angle(y), np.pi / 3, atol=1e-6)


class TestNoise:
    def test_noiseless_measures_inf(self):
        x = np.ones(100, dtype=np.complex64)
        assert measure_esn0(x, x) == math.inf

    @pytest.mark.parametrize("esn0", [0.0, 10.0])
    def test_measured_esn0_matches_configured(self, esn0):
        """Law-of-large-numbers oracle: estimate within 0.1 dB at 1e6 samples."""
        rng = np.random.default_rng(5)
        x = (rng.normal(size=10**6) + 1j * rng.normal(size=10**6)).astype(np.complex64)
        y = apply(x, ChannelConfig(esn0_db=esn0, seed=7))
        assert abs(measure_esn0(x, y) - esn0) <= 0.1

    def test_noise_variance_analytic(self):
        """Independent check: the added noise variance matches the formula."""
        x = np.ones(10**6, dtype=np.complex64)
        cfg = ChannelConfig(esn0_db=3.0, seed=11)
        y = apply(x, cfg)
        want = 1.6 / 10 ** (3.0 / 10)
        got = float(np.var(y - x))
        assert abs(got / want - 1) < 0.01

    def test_seed_reproducible(self):
        x = np.ones(1000, dtype=np.complex64)
        a = apply(x, ChannelConfig(esn0_db=0, seed=3))
        b = apply(x, ChannelConfig(esn0_db=0, seed=3))
        c = apply(x, ChannelConfig(esn0_db=0, seed=4))
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)
        corr = abs(np.vdot(a - x, c - x)) / (np.linalg.norm(a - x) * np.linalg.norm(c - x))
        assert corr < 0.1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            measure_esn0(np.ones(10), np.ones(11))


class TestProfileBound:
    def test_warns_beyond_profile_ppm(self, desk_plan):
        with pytest.warns(UserWarning):
            ChannelConfig.for_profile(desk_plan.profile, clock_offset_ppm=50)
